package rules_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/repair"
	"detective/internal/rules"
	"detective/internal/similarity"
)

// TestExactCandidatesMatchScan: an exact node's candidates, read from
// the KB's name table, are what the class-extent scan finds under "=",
// for every class of the paper KB and of Nobel-4000's (literal
// included), on instance names, typo'd names, class and predicate
// names, literals and unknown strings.
func TestExactCandidatesMatchScan(t *testing.T) {
	nobel := dataset.NewNobel(1, 4000)
	var dirty []string
	for _, tu := range nobel.Inject(dataset.Noise{Rate: 0.3, TypoFrac: 0.8, Seed: 1}).Dirty.Tuples[:200] {
		dirty = append(dirty, tu.Values...)
	}
	for _, c := range []struct {
		name  string
		g     *kb.Graph
		dirty []string
	}{
		{"paper", dataset.NewPaperExample().KB, nil},
		{"nobel-4000", nobel.Yago, dirty},
	} {
		g := c.g
		var classes []string
		values := append([]string{"", "no such name", "literal ", "Avram Hershko", "Avram Hersko"}, c.dirty...)
		for id := 0; id < g.NumNodes(); id++ {
			name := g.Name(kb.ID(id))
			switch g.KindOf(kb.ID(id)) {
			case kb.KindClass:
				classes = append(classes, name)
				values = append(values, name)
			case kb.KindInstance, kb.KindLiteral:
				if id%23 == 0 {
					values = append(values, name, name[1:], name+"x")
				}
			}
		}
		for _, p := range g.Predicates() {
			values = append(values, g.Name(p))
		}
		cat := rules.NewCatalog(g)
		found := 0
		for _, cls := range classes {
			for _, v := range values {
				got := cat.CandidatesOn(g, cls, similarity.Eq, v)
				want := cat.CandidatesScanOn(g, cls, similarity.Eq, v)
				if !sameIDSet(got, want) {
					t.Fatalf("%s: class %q, value %q: name table %v, scan %v", c.name, cls, v, got, want)
				}
				found += len(got)
			}
		}
		if found == 0 {
			t.Errorf("%s: no value matched any class", c.name)
		}
		if _, misses, size := cat.CacheStats(); misses != 0 || size != 0 || g.IndexedNames() != 0 {
			t.Errorf("%s: exact lookups reached the cache (%d misses, %d lists) or built %d index names",
				c.name, misses, size, g.IndexedNames())
		}
	}
}

// TestServingExactNodesBypassCacheAndIndex: streaming fresh noisy
// Nobel-4000 rows, as /clean does, adds no candidate-cache list for an
// exact node and builds no index for the exact evidence class (Nobel
// laureates in Chemistry); the similarity evidence classes
// (organization and city) are cached and indexed.
func TestServingExactNodesBypassCacheAndIndex(t *testing.T) {
	b := dataset.NewNobel(1, 4000)
	g := b.Yago
	e, err := repair.NewEngine(b.Rules, g, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	if err := b.Inject(dataset.Noise{Rate: 0.3, TypoFrac: 0.8, Seed: 2}).Dirty.WriteCSV(&in); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CleanCSVStreamContext(context.Background(), &in, io.Discard, true); err != nil {
		t.Fatal(err)
	}
	specs := e.Cat.CachedSpecs()
	if len(specs) == 0 {
		t.Fatal("no similarity node's list was cached")
	}
	for _, sp := range specs {
		if sp.Op == similarity.OpEq {
			t.Fatalf("the candidate cache holds an exact node's list (%d lists)", len(specs))
		}
	}
	want, exact := 0, map[string]bool{}
	seen := map[string]bool{}
	for _, dr := range b.Rules {
		for _, n := range dr.Evidence {
			if n.Sim.Op == similarity.OpEq {
				exact[n.Type] = true
			} else if !seen[n.Type] {
				seen[n.Type] = true
				want += len(g.InstancesOf(g.Lookup(n.Type)))
			}
		}
	}
	if len(exact) == 0 || len(seen) == 0 {
		t.Fatalf("the Nobel rules have exact evidence classes %v and similarity ones %v, want both", exact, seen)
	}
	if got := g.IndexedNames(); got != want {
		t.Errorf("serving built %d index names, want %d: the similarity evidence classes %v only, not %v",
			got, want, seen, exact)
	}
}
