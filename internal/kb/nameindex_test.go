package kb_test

import (
	"sync"
	"testing"

	"detective/internal/kb"
	"detective/internal/rules"
	"detective/internal/similarity"
)

// nameIndexGraph is a small graph with a taxonomy, instances and
// literals.
func nameIndexGraph() *kb.Graph {
	g := kb.New()
	g.AddType("Haifa", "city")
	g.AddType("Karcag", "city")
	g.AddType("Israel", "country")
	g.AddSubclass("city", "place")
	g.AddPropertyTriple("Haifa", "population", "285316")
	g.Freeze()
	return g
}

// TestNameIndexSharedByCatalogs: each class index is built at most
// once per graph. Concurrent first reads get one index, and two
// catalogs on the graph read it rather than building their own.
func TestNameIndexSharedByCatalogs(t *testing.T) {
	g := nameIndexGraph()
	city := g.Lookup("city")

	got := make([]*similarity.StringIndex, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() { defer wg.Done(); got[i] = g.NameIndex(city) }()
	}
	wg.Wait()
	for i, ix := range got {
		if ix != got[0] {
			t.Fatalf("concurrent first read %d got another index", i)
		}
	}
	if n := g.IndexedNames(); n != 2 {
		t.Fatalf("IndexedNames = %d after building city, want 2", n)
	}

	a, b := rules.NewCatalog(g), rules.NewCatalog(g)
	for _, cat := range []*rules.Catalog{a, b} {
		if ids := cat.CandidatesOn(g, "city", similarity.EDK(1), "Hifa"); len(ids) != 1 || g.Name(ids[0]) != "Haifa" {
			t.Fatalf("CandidatesOn(city, Hifa) = %v", ids)
		}
		if ids := cat.CandidatesOn(g, "place", similarity.EDK(1), "Karcg"); len(ids) != 1 || g.Name(ids[0]) != "Karcag" {
			t.Fatalf("CandidatesOn(place, Karcg) = %v", ids)
		}
	}
	if g.NameIndex(city) != got[0] {
		t.Fatal("a catalog lookup rebuilt the city index")
	}
	if n := g.IndexedNames(); n != 4 {
		t.Fatalf("IndexedNames = %d after two catalogs read city and place, want 4 (each built once)", n)
	}
}

// TestNameIndexDroppedByMutation: a mutation that changes class
// membership drops the built indexes, and the next read sees the new
// member.
func TestNameIndexDroppedByMutation(t *testing.T) {
	g := nameIndexGraph()
	city, lit := g.Lookup("city"), g.Lookup(kb.LiteralClass)
	before := g.NameIndex(city)
	if ids := before.LookupEq("Budapest"); len(ids) != 0 {
		t.Fatalf("Budapest found before it exists: %v", ids)
	}
	g.NameIndex(lit)

	g.AddType("Budapest", "city")
	if n := g.IndexedNames(); n != 0 {
		t.Fatalf("IndexedNames = %d after AddType, want 0", n)
	}
	after := g.NameIndex(city)
	if after == before {
		t.Fatal("AddType kept the stale city index")
	}
	if ids := after.LookupEq("Budapest"); len(ids) != 1 || g.Name(kb.ID(ids[0])) != "Budapest" {
		t.Fatalf("LookupEq(Budapest) = %v after AddType", ids)
	}

	// Subclassing moves every member of the subclass into the super.
	g.AddType("Danube", "river")
	if ids := g.NameIndex(g.Lookup("place")).LookupEq("Danube"); len(ids) != 0 {
		t.Fatalf("Danube is a place before river ⊆ place: %v", ids)
	}
	g.AddSubclass("river", "place")
	if ids := g.NameIndex(g.Lookup("place")).LookupEq("Danube"); len(ids) != 1 {
		t.Fatalf("LookupEq(place, Danube) = %v after AddSubclass", ids)
	}

	// A new literal joins the literal class.
	if ids := g.NameIndex(lit).LookupEq("1873"); len(ids) != 0 {
		t.Fatalf("literal 1873 found before it exists: %v", ids)
	}
	g.AddPropertyTriple("Budapest", "founded", "1873")
	if ids := g.NameIndex(lit).LookupEq("1873"); len(ids) != 1 {
		t.Fatalf("LookupEq(literal, 1873) = %v after adding it", ids)
	}
}

// TestApplyDeltaStartsWithoutIndex: a graph from ApplyDelta builds its
// own indexes on first read; it neither inherits the base's nor shares
// them.
func TestApplyDeltaStartsWithoutIndex(t *testing.T) {
	base := nameIndexGraph()
	base.NameIndex(base.Lookup("city"))
	target := nameIndexGraph()
	target.AddType("Budapest", "city")
	next, err := base.ApplyDelta(kb.Diff(base, target))
	if err != nil {
		t.Fatal(err)
	}
	if n := next.IndexedNames(); n != 0 {
		t.Fatalf("applied graph starts with %d indexed names, want 0", n)
	}
	if ids := next.NameIndex(next.Lookup("city")).LookupEq("Budapest"); len(ids) != 1 {
		t.Fatalf("LookupEq(Budapest) on the applied graph = %v", ids)
	}
	if n := base.IndexedNames(); n != 2 {
		t.Fatalf("base IndexedNames = %d after the apply, want 2", n)
	}
}
