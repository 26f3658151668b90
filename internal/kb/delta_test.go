package kb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// paperGraphV2 writes g as a v2 snapshot and loads it back mmap'd, so
// tests exercise the snapshot (read-only) storage form.
func asV2(t *testing.T, g *Graph) *Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.dkbs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteSnapshotV2(f); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	return g2
}

// newerPaperGraph is paperGraph with a realistic small churn: one
// entity gone entirely (orphan exercise), a triple retargeted, new
// entities with types, a new predicate, a taxonomy edit and a literal
// change.
func newerPaperGraph() *Graph {
	g := paperGraph()
	g2 := New()
	// Copy everything except the assertions we edit.
	for s := 0; s < g.NumNodes(); s++ {
		for _, e := range g.Out(ID(s)) {
			sn, pn, on := g.Name(ID(s)), g.Name(e.Pred), g.Name(e.To)
			switch {
			case sn == "Avram Hershko" && pn == "wonPrize" && on == "Albert Lasker Award for Medicine":
				// dropped: prize revoked from the KB
			case sn == "Israel Institute of Technology" && pn == "locatedIn":
				g2.AddTriple(sn, pn, "Haifa") // unchanged, added explicitly for clarity
			case g.KindOf(e.To) == KindLiteral:
				g2.AddPropertyTriple(sn, pn, on)
			default:
				g2.AddTriple(sn, pn, on)
			}
		}
	}
	g.forEachTyped(func(inst ID, classes []ID) {
		for _, c := range classes {
			if g.Name(inst) == "Albert Lasker Award for Medicine" {
				continue // node fully removed → orphan in applied graphs
			}
			g2.AddType(g.Name(inst), g.Name(c))
		}
	})
	// Edits on top.
	g2.AddTriple("Avram Hershko", "wonPrize", "Wolf Prize in Medicine")
	g2.AddType("Wolf Prize in Medicine", "Israeli awards")
	g2.AddSubclass("Israeli awards", "awards")
	g2.AddSubclass("Chemistry awards", "awards")
	g2.AddPropertyTriple("Aaron Ciechanover", "bornOnDate", "1947-10-01")
	g2.AddType("Aaron Ciechanover", "Nobel laureates in Chemistry")
	g2.AddTriple("Aaron Ciechanover", "worksAt", "Israel Institute of Technology")
	return g2
}

func deltaBytes(t *testing.T, d *Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatalf("Delta.Write: %v", err)
	}
	return buf.Bytes()
}

func TestFingerprintStorageFormInvariance(t *testing.T) {
	g := paperGraph()
	g.AddSubclass("city", "location")

	v2 := asV2(t, g)
	if got, want := v2.Fingerprint(), g.Fingerprint(); got != want {
		t.Errorf("v2 fingerprint %016x != mutable fingerprint %016x", got, want)
	}

	// A graph of identical content built in a different order (and
	// therefore with different IDs) must agree.
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
		lines[i], lines[j] = lines[j], lines[i]
	}
	reordered, err := Parse(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatalf("Parse(reversed): %v", err)
	}
	if got, want := reordered.Fingerprint(), g.Fingerprint(); got != want {
		t.Errorf("reordered fingerprint %016x != original %016x", got, want)
	}
}

func TestFingerprintDistinguishesContent(t *testing.T) {
	a := paperGraph()
	b := paperGraph()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical graphs disagree on fingerprint")
	}
	b.AddTriple("Avram Hershko", "livesIn", "Haifa")
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprint unchanged by an added triple")
	}
	c := paperGraph()
	c.AddType("Haifa", "port city")
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint unchanged by an added type assertion")
	}
	d := paperGraph()
	d.AddSubclass("city", "location")
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("fingerprint unchanged by an added subclass edge")
	}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		form func(*testing.T, *Graph) *Graph
	}{
		{"mutableBase", func(_ *testing.T, g *Graph) *Graph { return g }},
		{"snapshotBase", asV2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := tc.form(t, paperGraph())
			new_ := newerPaperGraph()
			d := Diff(old, new_)
			if d.Ops() == 0 {
				t.Fatal("expected a non-empty delta")
			}
			got, err := old.ApplyDelta(d)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			if !got.ReadOnly() {
				t.Error("applied graph should be snapshot-form (read-only)")
			}
			if got.Generation() <= old.Generation() {
				t.Errorf("generation did not advance: %d -> %d", old.Generation(), got.Generation())
			}
			if want := encodeText(t, new_); encodeText(t, got) != want {
				t.Error("applied graph's canonical text differs from the diff target")
			}
			if got.NumTriples() != new_.NumTriples() {
				t.Errorf("triples: got %d, want %d", got.NumTriples(), new_.NumTriples())
			}
			if got, want := got.Fingerprint(), new_.Fingerprint(); got != want {
				t.Errorf("applied fingerprint %016x != target %016x", got, want)
			}
			// Closures over the patched taxonomy.
			ci := got.Lookup("Aaron Ciechanover")
			nl := got.Lookup("Nobel laureates in Chemistry")
			if ci == Invalid || nl == Invalid || !got.HasType(ci, nl) {
				t.Error("new instance's type lost through apply")
			}
			wolf := got.Lookup("Wolf Prize in Medicine")
			aw := got.Lookup("awards")
			if wolf == Invalid || aw == Invalid || !got.HasType(wolf, aw) {
				t.Error("new taxonomy edge not reflected in closure")
			}
			// The removed triple is gone; the orphan node stays interned
			// but unreachable from any index.
			av := got.Lookup("Avram Hershko")
			lasker := got.Lookup("Albert Lasker Award for Medicine")
			if lasker == Invalid {
				t.Fatal("orphaned node should stay interned")
			}
			if got.HasEdge(av, got.Lookup("wonPrize"), lasker) {
				t.Error("removed triple still present")
			}
			if len(got.In(lasker)) != 0 || len(got.Out(lasker)) != 0 || len(got.DirectTypes(lasker)) != 0 {
				t.Error("orphaned node still reachable from an index")
			}
			// The base graph is untouched.
			if !old.HasEdge(old.Lookup("Avram Hershko"), old.Lookup("wonPrize"), old.Lookup("Albert Lasker Award for Medicine")) {
				t.Error("base graph mutated by ApplyDelta")
			}
		})
	}
}

func TestDiffDeterministicAndSerializationRoundTrip(t *testing.T) {
	old := paperGraph()
	new_ := newerPaperGraph()
	d1 := Diff(old, new_)
	d2 := Diff(asV2(t, paperGraph()), asV2(t, newerPaperGraph()))
	b1, b2 := deltaBytes(t, d1), deltaBytes(t, d2)
	// BaseNodes may legitimately differ across storage forms of equal
	// content? No: node count is interning count, identical for equal
	// content built fresh. Bytes must match exactly.
	if !bytes.Equal(b1, b2) {
		t.Error("Diff over different storage forms of the same content produced different bytes")
	}
	rd, err := ReadDelta(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("ReadDelta: %v", err)
	}
	if !reflect.DeepEqual(d1, rd) {
		t.Errorf("delta did not survive serialization:\nwrote %+v\nread  %+v", d1, rd)
	}
	if !bytes.Equal(deltaBytes(t, rd), b1) {
		t.Error("re-serializing a read delta changed its bytes")
	}
}

func TestApplyDeltaEmpty(t *testing.T) {
	g := paperGraph()
	d := Diff(g, paperGraph())
	if d.Ops() != 0 {
		t.Fatalf("diff of identical content has %d ops", d.Ops())
	}
	got, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta(empty): %v", err)
	}
	if encodeText(t, got) != encodeText(t, g) {
		t.Error("empty delta changed content")
	}
	if got.Generation() <= g.Generation() {
		t.Error("even an empty delta must bump the generation")
	}
}

func TestApplyDeltaBaseMismatch(t *testing.T) {
	old := paperGraph()
	d := Diff(old, newerPaperGraph())

	wrong := paperGraph()
	wrong.AddTriple("Avram Hershko", "livesIn", "Haifa")
	if _, err := wrong.ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("apply to drifted base: got %v, want ErrDeltaBaseMismatch", err)
	}

	// Same triple count, different content: fingerprint must catch it.
	wrong2 := paperGraph()
	wrong2.AddTriple("Avram Hershko", "livesIn", "Haifa")
	d2 := Diff(paperGraph(), wrong2)
	twisted := paperGraph()
	twisted.AddTriple("Avram Hershko", "livesIn", "Karcag")
	if twisted.NumTriples() != paperGraph().NumTriples()+1 {
		t.Fatal("setup: counts should match")
	}
	base := paperGraph()
	base.AddTriple("Avram Hershko", "diedIn", "Haifa")
	if base.NumTriples() != wrong2.NumTriples() {
		t.Fatal("setup: equal triple counts required")
	}
	if _, err := base.ApplyDelta(d2); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("apply to same-count different-content base: got %v, want ErrDeltaBaseMismatch", err)
	}

	// Applying the same delta twice: the first succeeds, the second
	// sees the new content and is refused.
	applied, err := old.ApplyDelta(d)
	if err != nil {
		t.Fatalf("first apply: %v", err)
	}
	if _, err := applied.ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("double apply: got %v, want ErrDeltaBaseMismatch", err)
	}
}

func TestApplyDeltaChained(t *testing.T) {
	// g0 -> g1 -> g2 where g1 removes a node entirely (orphan) and g2
	// re-adds assertions: deltas diffed between fresh graphs must keep
	// applying to delta-applied graphs whose node sets differ.
	g0 := paperGraph()
	g1 := newerPaperGraph()
	g2 := newerPaperGraph()
	g2.AddTriple("Aaron Ciechanover", "wonPrize", "Nobel Prize in Chemistry")
	g2.AddType("Haifa", "port city")

	a1, err := g0.ApplyDelta(Diff(paperGraph(), g1))
	if err != nil {
		t.Fatalf("apply d01: %v", err)
	}
	a2, err := a1.ApplyDelta(Diff(newerPaperGraph(), g2))
	if err != nil {
		t.Fatalf("apply d12 to chained graph: %v", err)
	}
	if encodeText(t, a2) != encodeText(t, g2) {
		t.Error("chained applies diverged from target content")
	}
	if got, want := a2.Fingerprint(), g2.Fingerprint(); got != want {
		t.Errorf("chained fingerprint %016x != target %016x", got, want)
	}
}

// hotKeyContent is the KB after step steps of a churn: ten laureates
// share the hot (wonPrize, Nobel Prize) key, and each step retires the
// oldest and adds one, with its own birthplace and type, and moves one
// subclass edge.
func hotKeyContent(step int) *Graph {
	g := New()
	g.AddSubclass("laureate", "person")
	g.AddSubclass(fmt.Sprint("class ", step), "person")
	for i := step; i < step+10; i++ {
		s := fmt.Sprint("laureate ", i)
		g.AddTriple(s, "wonPrize", "Nobel Prize")
		g.AddTriple(s, "bornIn", fmt.Sprint("city ", i))
		g.AddType(s, "laureate")
	}
	return g
}

// TestApplyDeltaChainKeepsArenasLive applies 50 chained deltas that each
// rewrite one hot (pred, obj) list, empty some pair keys and add others:
// every applied graph's arenas must hold exactly its live entries, and
// its pair tables may exceed a fresh table for their live keys by at
// most one doubling.
func TestApplyDeltaChainKeepsArenasLive(t *testing.T) {
	for _, form := range []struct {
		name string
		base func() *Graph
	}{
		{"mutable", func() *Graph { return hotKeyContent(0) }},
		{"mmap", func() *Graph { return asV2(t, hotKeyContent(0)) }},
	} {
		t.Run(form.name, func(t *testing.T) {
			g := form.base()
			for step := 1; step <= 50; step++ {
				next, err := g.ApplyDelta(Diff(hotKeyContent(step-1), hotKeyContent(step)))
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				g = next
				nTypes, nSubs := 0, 0
				want := hotKeyContent(step)
				want.forEachTyped(func(_ ID, cs []ID) { nTypes += len(cs) })
				want.forEachSubclassed(func(_ ID, cs []ID) { nSubs += len(cs) })
				for _, a := range []struct {
					name      string
					got, want int
				}{
					{"out", len(g.out.edges), g.NumTriples()},
					{"in", len(g.in.edges), g.NumTriples()},
					{"sp", len(g.sp.ids), g.NumTriples()},
					{"po", len(g.po.ids), g.NumTriples()},
					{"types", len(g.typesIdx.ids), nTypes},
					{"instOf", len(g.instOfIdx.ids), nTypes},
					{"superOf", len(g.superOfIdx.ids), nSubs},
					{"subOf", len(g.subOfIdx.ids), nSubs},
				} {
					if a.got != a.want {
						t.Fatalf("step %d: %s arena holds %d entries, %d live", step, a.name, a.got, a.want)
					}
				}
				for _, pt := range []struct {
					name string
					tab  *pairTable
				}{{"sp", g.sp}, {"po", g.po}} {
					live := 0
					pt.tab.forEachKey(func(uint64) { live++ })
					if max := 2 * len(newPairTable(live, 0).keys); len(pt.tab.keys) > max {
						t.Fatalf("step %d: %s table has %d slots for %d live keys, want at most %d",
							step, pt.name, len(pt.tab.keys), live, max)
					}
				}
			}
			if encodeText(t, g) != encodeText(t, hotKeyContent(50)) {
				t.Error("chained applies diverged from target content")
			}
		})
	}
}

func TestApplyDeltaKindChange(t *testing.T) {
	old := New()
	old.AddTriple("a", "p", "b")
	old.AddPropertyTriple("a", "q", "1999")
	new_ := New()
	new_.AddTriple("a", "p", "b")
	new_.AddTriple("a", "q", "1999") // "1999" becomes an instance
	d := Diff(old, new_)
	got, err := old.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if encodeText(t, got) != encodeText(t, new_) {
		t.Error("kind change did not round-trip")
	}
	if k := got.KindOf(got.Lookup("1999")); k != KindInstance {
		t.Errorf("kind not fixed: got %v", k)
	}
	// Kind fixes bypass the incremental check; full recompute must
	// still agree with the promised fingerprint.
	if got, want := got.Fingerprint(), new_.Fingerprint(); got != want {
		t.Errorf("fingerprint after kind change %016x != target %016x", got, want)
	}
}

func TestReadDeltaRejectsCorruption(t *testing.T) {
	d := Diff(paperGraph(), newerPaperGraph())
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := ReadDelta(bytes.NewReader([]byte("DKBSnope"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadDelta(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated delta accepted")
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadDelta(bytes.NewReader(flipped)); err == nil {
		t.Error("bit-flipped delta accepted")
	}
}

// TestReadDeltaRejectsOpCountPastPayload: a section whose op count
// cannot fit its payload is rejected before the count sizes an
// allocation (a few-byte body used to be able to claim 2^28 ops).
func TestReadDeltaRejectsOpCountPastPayload(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString(deltaMagic)
	bw.Write([]byte{DeltaVersion, 0, 0, 0})
	writeSection(bw, dsecHeader, []byte{0, 0, 0, 0})
	writeSection(bw, dsecNames, []byte{0})
	writeSection(bw, dsecTripleDel, binary.AppendUvarint(nil, 1<<24))
	for id := dsecTripleAdd; id < dsecEnd; id++ {
		writeSection(bw, id, []byte{0})
	}
	writeSection(bw, dsecEnd, nil)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadDelta(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "implausible op count") {
		t.Fatalf("ReadDelta = %v, want an implausible op count error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the delta allocated %d bytes", grew)
	}
}

func TestApplyDeltaRejectsInconsistentOps(t *testing.T) {
	g := paperGraph()
	mk := func() *Delta { return Diff(paperGraph(), paperGraph()) }

	d := mk()
	d.Names = []string{"Avram Hershko", "nosuch", "wasBornIn"}
	d.Kinds = []Kind{KindInstance, KindInstance, KindUnknown}
	d.TripleDel = [][3]int32{{0, 2, 1}}
	if _, err := g.ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("removal of absent triple: got %v, want ErrDeltaBaseMismatch", err)
	}

	d = mk()
	d.Names = []string{"Avram Hershko", "Karcag", "wasBornIn"}
	d.Kinds = []Kind{KindInstance, KindInstance, KindUnknown}
	d.TripleAdd = [][3]int32{{0, 2, 1}}
	if _, err := g.ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("addition of present triple: got %v, want ErrDeltaBaseMismatch", err)
	}

	d = mk()
	d.Names = []string{"Avram Hershko", "newplace", "visited"}
	d.Kinds = []Kind{KindInstance, KindInstance, KindUnknown}
	d.TripleAdd = [][3]int32{{0, 2, 1}, {0, 2, 1}}
	if _, err := g.ApplyDelta(d); err == nil {
		t.Error("duplicate op accepted")
	}
}

// TestStoreApplyDelta publishes a delta the way the server's canary
// does — Graph.ApplyDelta on the served graph, then Store.Swap — after
// a rollback has left the store's highest generation above the served
// one, so Swap must restamp the applied graph.
func TestStoreApplyDelta(t *testing.T) {
	st := NewStore(paperGraph())
	st.SetRetain(1)
	high := paperGraph()
	for i := 0; i < 100; i++ {
		high.AddTriple("Avram Hershko", "visited", fmt.Sprint("place ", i))
	}
	st.Swap(high)
	if _, _, err := st.Rollback(); err != nil {
		t.Fatal(err)
	}
	d := Diff(paperGraph(), newerPaperGraph())
	g, err := st.Graph().ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if g.Generation() > high.Generation() {
		t.Fatalf("setup: applied generation %d needs no restamp above %d", g.Generation(), high.Generation())
	}
	st.Swap(g)
	if st.Graph() != g {
		t.Error("store is not serving the applied graph")
	}
	if st.Generation() <= high.Generation() {
		t.Errorf("generation not restamped: %d, highest published %d", st.Generation(), high.Generation())
	}
	// The restamped generation must keep the verified fingerprint memo
	// coherent: Fingerprint() on the served graph equals the target's.
	if got, want := st.Graph().Fingerprint(), newerPaperGraph().Fingerprint(); got != want {
		t.Errorf("served fingerprint %016x != target %016x", got, want)
	}
	// A second identical delta must now be refused, store untouched.
	swaps := st.Swaps()
	if _, err := st.Graph().ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Errorf("stale delta: got %v, want ErrDeltaBaseMismatch", err)
	}
	if st.Graph() != g || st.Swaps() != swaps {
		t.Error("failed apply perturbed the store")
	}
}
