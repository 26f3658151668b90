package repair_test

import (
	"bytes"
	"fmt"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/rules"
	"detective/internal/similarity"
)

// TestFreshRowOneLookupPerSimilarityNode: a fresh row costs exactly one
// catalog lookup per distinct similarity node its rules reach. On
// Nobel-4000 every rule has the exact Name node as evidence, so a row
// whose name is a laureate reaches both similarity evidence nodes
// (Institution and City, ED 2) and any other row neither.
func TestFreshRowOneLookupPerSimilarityNode(t *testing.T) {
	b := dataset.NewNobel(1, 4000)
	g := b.Yago
	e, err := repair.NewEngineWithOptions(b.Rules, g, b.Schema, repair.Options{MemoDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	simNodes := map[string]bool{}
	for _, dr := range b.Rules {
		for _, n := range dr.Evidence {
			if n.Sim.Op != similarity.OpEq {
				simNodes[n.Key()] = true
			}
		}
	}
	if len(simNodes) != 2 {
		t.Fatalf("the Nobel rules have %d similarity evidence nodes, want 2", len(simNodes))
	}
	laureates := g.Lookup(b.Rules[0].Evidence[0].Type)
	nameCol := b.Schema.MustCol("Name")
	lookups := func() int64 { h, m, _ := e.Cat.CacheStats(); return h + m }
	reached := 0
	for i, tu := range b.Inject(dataset.Noise{Rate: 0.3, TypoFrac: 0.8, Seed: 3}).Dirty.Tuples {
		before := lookups()
		e.FastRepair(tu)
		want := 0
		if x := g.Lookup(tu.Values[nameCol]); x != kb.Invalid && g.HasType(x, laureates) {
			want = len(simNodes)
			reached++
		}
		if got := lookups() - before; got != int64(want) {
			t.Fatalf("row %d %q: %d catalog lookups, want %d", i, tu.Values, got, want)
		}
	}
	if reached < 1000 {
		t.Errorf("only %d rows reached the similarity nodes", reached)
	}
}

// TestSwapRenumberedGraph: after kb.Store.Swap to a graph with the same
// facts whose rule classes (but the reserved literal class) and
// relations have other IDs, an engine
// repairs every row as a fresh engine on that graph does. The names a
// matcher resolved on the first graph must not outlive its generation.
func TestSwapRenumberedGraph(t *testing.T) {
	b := dataset.NewNobel(1, 1069)
	var text bytes.Buffer
	if err := b.Yago.Encode(&text); err != nil {
		t.Fatal(err)
	}
	renumbered := kb.New()
	for i := 0; i < 50; i++ {
		renumbered.AddTriple(fmt.Sprintf("pad-%d", i), fmt.Sprintf("padRel-%d", i%5), "pad-0")
		renumbered.AddType(fmt.Sprintf("pad-%d", i), fmt.Sprintf("padClass-%d", i%3))
	}
	if err := renumbered.ParseInto(&text); err != nil {
		t.Fatal(err)
	}
	for _, dr := range b.Rules {
		for _, n := range append([]rules.Node{dr.Pos, *dr.Neg}, dr.Evidence...) {
			if n.Type != kb.LiteralClass && renumbered.Lookup(n.Type) == b.Yago.Lookup(n.Type) {
				t.Fatalf("class %q kept its ID", n.Type)
			}
		}
		for _, ed := range dr.Edges {
			if renumbered.Lookup(ed.Rel) == b.Yago.Lookup(ed.Rel) {
				t.Fatalf("relation %q kept its ID", ed.Rel)
			}
		}
	}
	rows := b.Inject(dataset.Noise{Rate: 0.3, TypoFrac: 0.8, Seed: 1}).Dirty.Tuples
	store := kb.NewStore(b.Yago)
	e, err := repair.NewEngineStore(b.Rules, store, b.Schema, repair.Options{MemoDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	before := make([]*relation.Tuple, len(rows))
	for i, tu := range rows {
		before[i] = e.FastRepair(tu)
	}
	store.Swap(renumbered)
	fresh, err := repair.NewEngineWithOptions(b.Rules, renumbered, b.Schema, repair.Options{MemoDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i, tu := range rows {
		got, want := e.FastRepair(tu), fresh.FastRepair(tu)
		if !got.EqualMarked(want) {
			t.Fatalf("row %d %q: after the swap %v, a fresh engine %v", i, tu.Values, got, want)
		}
		if !want.EqualMarked(before[i]) {
			t.Fatalf("row %d %q: the renumbered graph repairs to %v, the original to %v", i, tu.Values, want, before[i])
		}
		if !want.EqualMarked(tu) {
			changed++
		}
	}
	if changed == 0 {
		t.Error("no row changed: the comparison proves nothing")
	}
}
