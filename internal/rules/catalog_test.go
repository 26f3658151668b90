package rules_test

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/rules"
	"detective/internal/similarity"
)

// TestCandidateCacheHits: repeated lookups of the same (type, sim,
// value) must be served from the cache and return the same candidate
// list as the uncached scan.
func TestCandidateCacheHits(t *testing.T) {
	ex := dataset.NewPaperExample()
	cat := rules.NewCatalog(ex.KB)
	g := cat.Graph()
	specs := []similarity.Spec{similarity.Eq, similarity.EDK(2), similarity.JaccardAtLeast(0.5)}
	values := []string{"Avram Hershko", "Hershko", "Haifa", "nope", ""}
	for _, sp := range specs {
		for _, v := range values {
			first := cat.CandidatesOn(g, "Nobel laureates in Chemistry", sp, v)
			again := cat.CandidatesOn(g, "Nobel laureates in Chemistry", sp, v)
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%v %q: cached result %v != first %v", sp, v, again, first)
			}
			want := cat.CandidatesScanOn(g, "Nobel laureates in Chemistry", sp, v)
			if !sameIDSet(first, want) {
				t.Fatalf("%v %q: cached %v, scan %v", sp, v, first, want)
			}
		}
	}
	hits, misses, size := cat.CacheStats()
	if hits == 0 {
		t.Error("no cache hits recorded")
	}
	if misses == 0 || size == 0 {
		t.Errorf("misses=%d size=%d, want both > 0", misses, size)
	}
}

// TestCandidateCacheInvalidation: growing the KB after lookups must
// not serve stale candidate lists — the generation check watches
// kb.Graph.Generation, which moves on every mutation (including
// type-only additions, which don't change the triple count). The
// exact node reads the name table; the ED node goes through the cache.
func TestCandidateCacheInvalidation(t *testing.T) {
	for _, sp := range []similarity.Spec{similarity.Eq, similarity.EDK(1)} {
		g := kb.New()
		g.AddType("Haifa", "city")
		cat := rules.NewCatalog(g)

		if got := cat.CandidatesOn(g, "city", sp, "Karcag"); len(got) != 0 {
			t.Fatalf("%v: CandidatesOn(Karcag) = %v before it exists", sp, got)
		}
		g.AddType("Karcag", "city")
		if got := cat.CandidatesOn(g, "city", sp, "Karcag"); len(got) != 1 {
			t.Fatalf("%v: CandidatesOn(Karcag) = %v after adding it (stale cache?)", sp, got)
		}
	}
}

// TestCandidateCacheBound: the cache must respect its default size
// bound under a stream of distinct keys instead of growing without
// limit. The keys are an ED node's: exact nodes never reach the cache.
func TestCandidateCacheBound(t *testing.T) {
	ex := dataset.NewPaperExample()
	cat := rules.NewCatalog(ex.KB)
	g := cat.Graph()
	for i := 0; i < 3*rules.DefaultCandidateCacheSize; i++ {
		cat.CandidatesOn(g, "city", similarity.EDK(1), strconv.Itoa(i))
	}
	_, _, size := cat.CacheStats()
	if size > rules.DefaultCandidateCacheSize {
		t.Errorf("cache size %d exceeds bound %d", size, rules.DefaultCandidateCacheSize)
	}
	if size == 0 {
		t.Error("no candidate list cached")
	}
}

// TestIndexStatsPerCatalog: two catalogs on one graph share its
// signature indexes but count their own lookups. Lookups through the
// second catalog, concurrent with the first's, must not move the first
// catalog's hits and misses, and both report the size of every index
// built on the graph, whichever catalog's lookup built it. The lookups
// are an ED node's: exact nodes read the name table, not an index.
func TestIndexStatsPerCatalog(t *testing.T) {
	ex := dataset.NewPaperExample()
	g := ex.KB
	a, b := rules.NewCatalog(g), rules.NewCatalog(g)
	ed := similarity.EDK(1)
	if got := a.CandidatesOn(g, "city", ed, "Haifa"); len(got) != 1 {
		t.Fatalf("city Haifa = %v", got)
	}
	if got := b.CandidatesOn(g, "country", ed, "Israel"); len(got) != 1 {
		t.Fatalf("country Israel = %v", got)
	}
	// Distinct values miss the candidate cache, so every lookup below
	// reaches an index and finds nothing there.
	const workers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.CandidatesOn(g, "city", ed, fmt.Sprintf("a-%d-%d", w, i))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.CandidatesOn(g, "country", ed, fmt.Sprintf("b-%d-%d", w, i))
			}
		}()
	}
	wg.Wait()

	want := len(g.InstancesOf(g.Lookup("city"))) + len(g.InstancesOf(g.Lookup("country")))
	for name, cat := range map[string]*rules.Catalog{"a": a, "b": b} {
		h, m, size := cat.IndexStats()
		if h != 1 || m != workers*per {
			t.Errorf("catalog %s: index hits=%d misses=%d, want 1 and %d", name, h, m, workers*per)
		}
		if size != want {
			t.Errorf("catalog %s: index size %d, want %d (city and country, built on the graph)", name, size, want)
		}
	}
}

// sameIDSet compares candidate lists as sets (retrieval order differs
// between the indexed and scanning paths).
func sameIDSet(a, b []kb.ID) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[kb.ID]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		if !in[x] {
			return false
		}
	}
	return true
}
