package kb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// benchGraph is a mid-size synthetic graph for the load benchmarks:
// entities with types, a small taxonomy, and literal-valued edges, in
// roughly the shape real KB excerpts take.
func benchGraph(b *testing.B) *Graph {
	b.Helper()
	g := New()
	g.AddSubclass("scientist", "person")
	g.AddSubclass("chemist", "scientist")
	g.AddSubclass("city", "location")
	classes := []string{"person", "scientist", "chemist"}
	for i := 0; i < 200; i++ {
		city := "city-" + itoa(i)
		g.AddType(city, "city")
	}
	for i := 0; i < 4000; i++ {
		name := "person-" + itoa(i)
		g.AddType(name, classes[i%len(classes)])
		g.AddTriple(name, "bornIn", "city-"+itoa(i%200))
		g.AddTriple(name, "worksIn", "city-"+itoa((i*7)%200))
		g.AddPropertyTriple(name, "bornOnDate", "19"+itoa(10+i%90)+"-01-02")
	}
	return g
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkKBLoadText is the baseline everyone starts from: parsing
// the canonical text encoding.
func BenchmarkKBLoadText(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph(b).Encode(&buf); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKBLoadSnapshotV2 decodes the page-aligned v2 layout
// portably — the fallback path for snapshot files off-Linux.
func BenchmarkKBLoadSnapshotV2(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph(b).WriteSnapshotV2(&buf); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSnapshot(bytes.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKBLoadMmap is the serving path for on-disk v2 snapshots:
// map the arenas read-only and validate, no decode, no copies. This
// is what makes registry tenant cold admissions cheap.
func BenchmarkKBLoadMmap(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph(b).WriteSnapshotV2(&buf); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "kb.v2.dkbs")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSnapshotFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKBReloadFull is what a full `POST /reload` of an on-disk v2
// snapshot actually costs before the graph can serve: the mmap map plus
// Freeze (closure construction), which Store.Swap always runs — the
// cost a delta apply is compared with.
func BenchmarkKBReloadFull(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph(b).WriteSnapshotV2(&buf); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "kb.v2.dkbs")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := LoadSnapshotFile(path)
		if err != nil {
			b.Fatal(err)
		}
		g.Freeze()
	}
}

// churnedGraph rebuilds the bench graph with a deterministic fraction
// of its person triples retargeted or replaced — the "small edit"
// shape production KB updates take.
func churnedGraph(b *testing.B, churnedPersons int) *Graph {
	b.Helper()
	g := New()
	g.AddSubclass("scientist", "person")
	g.AddSubclass("chemist", "scientist")
	g.AddSubclass("city", "location")
	classes := []string{"person", "scientist", "chemist"}
	for i := 0; i < 200; i++ {
		g.AddType("city-"+itoa(i), "city")
	}
	for i := 0; i < 4000; i++ {
		name := "person-" + itoa(i)
		g.AddType(name, classes[i%len(classes)])
		if i < churnedPersons {
			// Retarget one edge, replace one property value — two
			// removals and three additions per churned person.
			g.AddTriple(name, "bornIn", "city-"+itoa((i+1)%200))
			g.AddTriple(name, "worksIn", "city-"+itoa((i*7)%200))
			g.AddPropertyTriple(name, "bornOnDate", "20"+itoa(10+i%90)+"-01-02")
			g.AddTriple(name, "livesIn", "city-"+itoa(i%200))
		} else {
			g.AddTriple(name, "bornIn", "city-"+itoa(i%200))
			g.AddTriple(name, "worksIn", "city-"+itoa((i*7)%200))
			g.AddPropertyTriple(name, "bornOnDate", "19"+itoa(10+i%90)+"-01-02")
		}
	}
	return g
}

// benchApplyDelta measures the delta apply on the mmap'd serving graph
// — the path `POST /reload?delta=1` pays — at a given churn. Compare
// against BenchmarkKBReloadFull, the cost a full reload of the same
// snapshot pays instead.
func benchApplyDelta(b *testing.B, churnedPersons int) {
	var buf bytes.Buffer
	if err := benchGraph(b).WriteSnapshotV2(&buf); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "kb.v2.dkbs")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	base, err := LoadSnapshotFile(path)
	if err != nil {
		b.Fatal(err)
	}
	base.Freeze()
	d := Diff(base, churnedGraph(b, churnedPersons))
	base.Fingerprint() // pre-warm like a served graph that has applied once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKBApplyDeltaSmall is ~1% churn on Nobel-4000 (40 of 4000
// persons edited, 200 triple ops).
func BenchmarkKBApplyDeltaSmall(b *testing.B) { benchApplyDelta(b, 40) }

// BenchmarkKBApplyDeltaLarge is ~10% churn (400 persons, 2000 ops).
func BenchmarkKBApplyDeltaLarge(b *testing.B) { benchApplyDelta(b, 400) }
