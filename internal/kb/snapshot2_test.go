package kb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// snap2Bytes serializes g in the v2 format, failing the test on error.
func snap2Bytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshotV2(&buf); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	return buf.Bytes()
}

// encodeText renders g in the canonical text format — the
// storage-independent fingerprint used to compare graphs across
// formats and load paths.
func encodeText(t *testing.T, g *Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.String()
}

// checkGraphSemantics exercises the read API of a loaded paper graph.
func checkGraphSemantics(t *testing.T, g *Graph) {
	t.Helper()
	s := g.Lookup("Avram Hershko")
	born := g.Lookup("wasBornIn")
	karcag := g.Lookup("Karcag")
	if s == Invalid || born == Invalid || karcag == Invalid {
		t.Fatal("entity lost in v2 round trip")
	}
	if got := g.Subjects(born, karcag); len(got) != 1 || got[0] != s {
		t.Errorf("Subjects(wasBornIn, Karcag) = %v, want [%d]", got, s)
	}
	if got := g.Objects(s, born); len(got) != 1 || got[0] != karcag {
		t.Errorf("Objects(Hershko, wasBornIn) = %v, want [%d]", got, karcag)
	}
	if !g.HasEdge(s, born, karcag) {
		t.Error("HasEdge lost in v2 round trip")
	}
	if g.Lookup("no such node") != Invalid {
		t.Error("Lookup invented a node")
	}
	lit := g.Lookup("1937-12-31")
	if lit == Invalid || g.KindOf(lit) != KindLiteral {
		t.Error("literal kind lost in v2 round trip")
	}
	if !g.HasType(g.Lookup("Haifa"), g.Lookup("location")) {
		t.Error("taxonomy closure lost in v2 round trip")
	}
	if got := g.InstancesOf(g.Lookup("city")); len(got) != 2 {
		t.Errorf("InstancesOf(city) = %d instances, want 2", len(got))
	}
	if got := g.Subclasses(g.Lookup("location")); len(got) != 1 {
		t.Errorf("Subclasses(location) = %v, want one class", got)
	}
}

func v2TestGraph() *Graph {
	g := paperGraph()
	g.AddSubclass("city", "location")
	g.AddSubclass("Chemistry awards", "awards")
	return g
}

// V2TestGraph exports v2TestGraph to the external FuzzLoadSnapshot.
var V2TestGraph = v2TestGraph

func TestSnapshotV2RoundTripDecode(t *testing.T) {
	g := v2TestGraph()
	snap := snap2Bytes(t, g)

	g2, err := LoadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("LoadSnapshot(v2): %v", err)
	}
	if !g2.ReadOnly() {
		t.Error("v2-loaded graph is not read-only")
	}
	if g2.Mapped() {
		t.Error("decode-path graph claims to be mmap'd")
	}
	if got, want := encodeText(t, g2), encodeText(t, g); got != want {
		t.Error("text encodings differ after v2 round trip")
	}
	if g2.Generation() != g.Generation() {
		t.Errorf("generation: got %d, want %d", g2.Generation(), g.Generation())
	}
	if g2.NumTriples() != g.NumTriples() || g2.NumNodes() != g.NumNodes() {
		t.Errorf("counts differ: %d/%d nodes, %d/%d triples",
			g2.NumNodes(), g.NumNodes(), g2.NumTriples(), g.NumTriples())
	}
	checkGraphSemantics(t, g2)

	// Every name must resolve back to its own ID through the name
	// table, and no other.
	for id := 0; id < g.NumNodes(); id++ {
		name := g.Name(ID(id))
		if got := g2.Lookup(name); got == Invalid || g2.Name(got) != name {
			t.Fatalf("Lookup(%q) = %d via name table, want the ID naming %q", name, got, name)
		}
	}
}

func TestSnapshotV2MmapLoad(t *testing.T) {
	g := v2TestGraph()
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := os.WriteFile(path, snap2Bytes(t, g), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile(v2): %v", err)
	}
	if runtime.GOOS == "linux" && !g2.Mapped() {
		t.Error("v2 snapshot on linux did not take the mmap path")
	}
	if !g2.ReadOnly() {
		t.Error("mapped graph is not read-only")
	}
	if got, want := encodeText(t, g2), encodeText(t, g); got != want {
		t.Error("text encodings differ after mmap load")
	}
	checkGraphSemantics(t, g2)
}

// v1Header starts a file in the retired DKBS v1 layout: the magic,
// version 1, and a reserved u16 where v2 keeps its section count.
var v1Header = []byte("DKBS\x01\x00\x00\x00")

// TestSnapshotV1FileRejected: the file readers refuse a v1 snapshot
// with the re-pack hint (LoadSnapshot's case is in
// TestSnapshotV2Corruption).
func TestSnapshotV1FileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := os.WriteFile(path, v1Header, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); !errors.Is(err, errSnapshotV1) {
		t.Errorf("LoadSnapshotFile(v1) error = %v, want the re-pack hint", err)
	}
	if _, err := ReadSnapshotInfo(path); !errors.Is(err, errSnapshotV1) {
		t.Errorf("ReadSnapshotInfo(v1) error = %v, want the re-pack hint", err)
	}
}

func TestSnapshotV2Deterministic(t *testing.T) {
	g := v2TestGraph()
	a := snap2Bytes(t, g)
	if !bytes.Equal(a, snap2Bytes(t, g)) {
		t.Fatal("two v2 encodings of the same graph differ")
	}
	// Re-packing a loaded (read-only) graph must reproduce the same
	// bytes: the canonicalization is a fixed point, and the writer
	// works off the span-table storage as well as the map storage.
	g2, err := LoadSnapshot(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, snap2Bytes(t, g2)) {
		t.Fatal("re-packing a v2-loaded graph changed the bytes")
	}
}

func TestSnapshotV2EmptyGraph(t *testing.T) {
	g := New()
	g2, err := LoadSnapshot(bytes.NewReader(snap2Bytes(t, g)))
	if err != nil {
		t.Fatalf("LoadSnapshot(empty v2): %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumTriples() != 0 {
		t.Errorf("empty graph round trip: %d nodes, %d triples", g2.NumNodes(), g2.NumTriples())
	}
	if g2.Lookup(LiteralClass) != g.literalClass {
		t.Error("literal pseudo-class lost")
	}
}

func TestSnapshotV2ReadOnlyPanics(t *testing.T) {
	g2, err := LoadSnapshot(bytes.NewReader(snap2Bytes(t, v2TestGraph())))
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"AddTriple":   func() { g2.AddTriple("a", "b", "c") },
		"AddType":     func() { g2.AddType("a", "b") },
		"AddSubclass": func() { g2.AddSubclass("a", "b") },
		"Intern":      func() { g2.Intern("a") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a read-only graph did not panic", name)
				}
			}()
			fn()
		})
	}
}

// v2Section locates section id in a v2 snapshot via its directory.
func findV2Section(t *testing.T, data []byte, id byte) (dirOff int, e dirEntry) {
	t.Helper()
	n := int(binary.LittleEndian.Uint16(data[6:8]))
	for i := 0; i < n; i++ {
		off := 8 + i*dirEntryLen
		b := data[off:]
		if b[0] == id {
			return off, dirEntry{
				id: b[0], flags: b[1],
				crc: binary.LittleEndian.Uint32(b[4:8]),
				off: int64(binary.LittleEndian.Uint64(b[8:16])),
				n:   int64(binary.LittleEndian.Uint64(b[16:24])),
			}
		}
	}
	t.Fatalf("section %d not found in v2 snapshot", id)
	return 0, dirEntry{}
}

func TestSnapshotV2Corruption(t *testing.T) {
	good := snap2Bytes(t, v2TestGraph())
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"empty input", nil, "bad snapshot magic"},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), "bad snapshot magic"},
		{"unknown version", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], 99)
			return b
		}), "unsupported snapshot version 99"},
		{"v1 header", v1Header, "re-pack"},
		{"truncated directory", good[:16], "truncated in the section directory"},
		{"duplicate directory entry", mutate(func(b []byte) []byte {
			dirOff, _ := findV2Section(t, b, sec2SPKeys)
			b[dirOff] = sec2Kinds
			return b
		}), "duplicate snapshot section"},
		{"section out of bounds", mutate(func(b []byte) []byte {
			dirOff, _ := findV2Section(t, b, sec2OutEdges)
			binary.LittleEndian.PutUint64(b[dirOff+16:], 1<<40)
			return b
		}), "out of bounds"},
		{"misaligned raw section", mutate(func(b []byte) []byte {
			dirOff, e := findV2Section(t, b, sec2Kinds)
			binary.LittleEndian.PutUint64(b[dirOff+8:], uint64(e.off)+1)
			return b
		}), "not page-aligned"},
		{"missing section", mutate(func(b []byte) []byte {
			dirOff, _ := findV2Section(t, b, sec2SPKeys)
			b[dirOff] = 200 // rename the section to an unknown ID
			return b
		}), "missing"},
		{"corrupt raw payload", mutate(func(b []byte) []byte {
			_, e := findV2Section(t, b, sec2OutEdges)
			b[e.off] ^= 0xFF
			return b
		}), "checksum mismatch"},
		{"corrupt counts", mutate(func(b []byte) []byte {
			_, e := findV2Section(t, b, sec2Counts)
			b[e.off] ^= 0xFF
			return b
		}), "checksum mismatch"},
		{"span out of range", mutate(func(b []byte) []byte {
			// Grow a type span beyond its arena and fix the CRC so only
			// the structural bounds check can catch it.
			dirOff, e := findV2Section(t, b, sec2TypeSpans)
			binary.LittleEndian.PutUint32(b[e.off+4:], 1<<30) // span.n
			binary.LittleEndian.PutUint32(b[e.off+8:], 1<<30) // span.cap
			crc := crc32.Checksum(b[e.off:e.off+e.n], crcTable)
			binary.LittleEndian.PutUint32(b[dirOff+4:], crc)
			return b
		}), "out of range"},
		{"name offsets past the name blob", mutate(func(b []byte) []byte {
			// Point the second name's start past the blob and fix the
			// CRC so only the structural bounds check can catch it.
			dirOff, e := findV2Section(t, b, sec2NameOffs)
			binary.LittleEndian.PutUint32(b[e.off+4:], 1<<30)
			crc := crc32.Checksum(b[e.off:e.off+e.n], crcTable)
			binary.LittleEndian.PutUint32(b[dirOff+4:], crc)
			return b
		}), "name offsets"},
		{"type ID out of range", mutate(func(b []byte) []byte {
			// An instance's class ID past the node range, CRC re-sealed:
			// Freeze would index its closure tables with it.
			dirOff, e := findV2Section(t, b, sec2TypeIDs)
			binary.LittleEndian.PutUint32(b[e.off:], 1<<30)
			crc := crc32.Checksum(b[e.off:e.off+e.n], crcTable)
			binary.LittleEndian.PutUint32(b[dirOff+4:], crc)
			return b
		}), "(typeIDs): ID 1073741824 out of range"},
		{"edge ID out of range", mutate(func(b []byte) []byte {
			// The first out-edge's predicate past the node range, CRC
			// re-sealed: Name(e.Pred) would panic on it.
			dirOff, e := findV2Section(t, b, sec2OutEdges)
			binary.LittleEndian.PutUint32(b[e.off:], 1<<30)
			crc := crc32.Checksum(b[e.off:e.off+e.n], crcTable)
			binary.LittleEndian.PutUint32(b[dirOff+4:], crc)
			return b
		}), "(outEdges): ID 1073741824 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadSnapshot(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("LoadSnapshot succeeded on corrupt v2 input")
			}
			if !bytes.Contains([]byte(err.Error()), []byte(tc.wantErr)) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSnapshotNameTableHidesNoName: the decode path rejects a name
// table whose slots are all occupied and in range but out of place, so
// that Lookup would miss names the graph holds. The first occupied slot
// and the first occupied slot past a free one are swapped, with the
// CRC re-sealed: each name now sits beyond the free slot that ends its
// own probe run.
func TestSnapshotNameTableHidesNoName(t *testing.T) {
	data := snap2Bytes(t, v2TestGraph())
	dirOff, e := findV2Section(t, data, sec2NameTab)
	tab := data[e.off : e.off+e.n]
	occupied := func(i int) bool { return binary.LittleEndian.Uint32(tab[16*i+8:]) != 0 }
	a, b, gap := -1, -1, false
	for i := 0; i < len(tab)/16 && b < 0; i++ {
		switch {
		case a < 0 && occupied(i):
			a = i
		case a >= 0 && !occupied(i):
			gap = true
		case gap && occupied(i):
			b = i
		}
	}
	if b < 0 {
		t.Fatal("test setup: no two occupied slots in different probe runs")
	}
	var tmp [16]byte
	copy(tmp[:], tab[16*a:])
	copy(tab[16*a:16*a+16], tab[16*b:16*b+16])
	copy(tab[16*b:], tmp[:])
	binary.LittleEndian.PutUint32(data[dirOff+4:], crc32.Checksum(tab, crcTable))

	g, err := LoadSnapshot(bytes.NewReader(data))
	if err == nil {
		missed := 0
		for i := 0; i < g.NumNodes(); i++ {
			if g.Lookup(g.Name(ID(i))) != ID(i) {
				missed++
			}
		}
		t.Fatalf("LoadSnapshot accepted a name table that hides %d of %d names", missed, g.NumNodes())
	}
	if !strings.Contains(err.Error(), "name table") {
		t.Fatalf("error %q does not mention the name table", err)
	}
}

// TestSnapshotCorruption: the file readers reject a corrupt snapshot.
// LoadSnapshotFile tries the mmap path first and must still report the
// decode path's error; ReadSnapshotInfo reads only the header and
// directory, so it must catch every case outside a section payload.
func TestSnapshotCorruption(t *testing.T) {
	good := snap2Bytes(t, v2TestGraph())
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := []struct {
		name    string
		data    []byte
		wantErr string
		payload bool // corruption inside a section payload
	}{
		{"empty input", nil, "reading snapshot header", false},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), "bad snapshot magic", false},
		{"wrong version", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], 99)
			return b
		}), "unsupported snapshot version 99", false},
		{"truncated header", good[:8+5], "truncated in the section directory", false},
		{"truncated section", mutate(func(b []byte) []byte {
			_, e := findV2Section(t, b, sec2OutEdges)
			return b[:e.off+1] // cut mid-payload
		}), "out of bounds", false},
		{"checksum mismatch", mutate(func(b []byte) []byte {
			// Move the first predicate to another valid node ID: only
			// the checksum, which the mmap path verifies for preds
			// too, can catch it.
			_, e := findV2Section(t, b, sec2Preds)
			b[e.off+1]--
			return b
		}), "checksum mismatch", true},
		{"missing section", mutate(func(b []byte) []byte {
			dirOff, _ := findV2Section(t, b, sec2Kinds)
			b[dirOff] = 200
			return b
		}), fmt.Sprintf("section %d missing", sec2Kinds), false},
		{"duplicate section", mutate(func(b []byte) []byte {
			dirOff, _ := findV2Section(t, b, sec2SPKeys)
			b[dirOff] = sec2Kinds
			return b
		}), "duplicate snapshot section", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "kb.snap")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSnapshotFile(path); err == nil {
				t.Error("LoadSnapshotFile succeeded on a corrupt file")
			} else if !bytes.Contains([]byte(err.Error()), []byte(tc.wantErr)) {
				t.Errorf("LoadSnapshotFile error %q does not mention %q", err, tc.wantErr)
			}
			if tc.payload {
				return
			}
			if _, err := ReadSnapshotInfo(path); err == nil {
				t.Error("ReadSnapshotInfo succeeded on a corrupt file")
			} else if !bytes.Contains([]byte(err.Error()), []byte(tc.wantErr)) {
				t.Errorf("ReadSnapshotInfo error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestReadSnapshotInfo(t *testing.T) {
	v2 := filepath.Join(t.TempDir(), "v2.snap")
	v2bytes := snap2Bytes(t, v2TestGraph())
	if err := os.WriteFile(v2, v2bytes, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := ReadSnapshotInfo(v2)
	if err != nil {
		t.Fatalf("ReadSnapshotInfo(v2): %v", err)
	}
	if info.Version != SnapshotVersion2 {
		t.Errorf("v2 info: version %d", info.Version)
	}
	if len(info.Sections) != int(sec2Max-1) {
		t.Errorf("v2 info: %d sections, want %d", len(info.Sections), sec2Max-1)
	}
	if info.FileSize != int64(len(v2bytes)) {
		t.Errorf("v2 info: file size %d, want %d", info.FileSize, len(v2bytes))
	}
	for _, s := range info.Sections {
		if s.Raw && !s.Aligned {
			t.Errorf("raw section %s at offset %d is not page-aligned", s.Name, s.Offset)
		}
	}
}

func TestNameTable(t *testing.T) {
	names := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		names = append(names, fmt.Sprintf("node-%d", i))
	}
	tab := newNameTable(len(names))
	var blob []byte
	offs := make([]uint32, 0, len(names)+1)
	for id, n := range names {
		offs = append(offs, uint32(len(blob)))
		blob = append(blob, n...)
		tab.insert(n, ID(id))
	}
	offs = append(offs, uint32(len(blob)))
	for id, n := range names {
		if got := tab.lookup(string(blob), offs, n); got != ID(id) {
			t.Fatalf("lookup(%q) = %d, want %d", n, got, id)
		}
	}
	for _, miss := range []string{"", "node-100", "nope", "node-"} {
		if got := tab.lookup(string(blob), offs, miss); got != Invalid {
			t.Fatalf("lookup(%q) = %d, want Invalid", miss, got)
		}
	}
}

// mapsLines counts the lines of /proc/self/maps that map path.
func mapsLines(t *testing.T, path string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	path, err = filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range bytes.Split(maps, []byte("\n")) {
		if bytes.HasSuffix(line, []byte(" "+path)) {
			n++
		}
	}
	return n
}

// TestSnapshotMappedOncePerVersion: loading an unchanged snapshot
// again reuses its mapping instead of adding one per load, and a
// replacement renamed into place is a new version, mapped anew, while
// graphs on the old version keep reading it.
func TestSnapshotMappedOncePerVersion(t *testing.T) {
	if runtime.GOOS != "linux" || !hostLittleEndian {
		t.Skip("the mmap load path is linux/little-endian only")
	}
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := os.WriteFile(path, snap2Bytes(t, v2TestGraph()), 0o644); err != nil {
		t.Fatal(err)
	}
	before := mapsLines(t, path)
	var first *Graph
	for i := 0; i < 10000; i++ {
		g, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		if first == nil {
			first = g
		}
		if g.mapped == nil || g.mapped != first.mapped {
			t.Fatalf("load %d: mapping %p, first load's %p", i, g.mapped, first.mapped)
		}
	}
	if added := mapsLines(t, path) - before; added > 1 {
		t.Errorf("10,000 loads added %d lines to /proc/self/maps, want at most 1", added)
	}

	next := v2TestGraph()
	next.AddType("Zurich", "city")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, snap2Bytes(t, next), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.mapped == first.mapped {
		t.Fatal("a snapshot renamed into place reused the old version's mapping")
	}
	if g.Lookup("Zurich") == Invalid || first.Lookup("Zurich") != Invalid {
		t.Error("graphs do not read their own snapshot versions")
	}
	checkGraphSemantics(t, first)
}
