package kb

// DKBS snapshots: the persisted form of a built Graph, in the
// mmap-ready version 2 layout, which makes loading nearly free by
// laying the indexes out in the file exactly as the Graph reads them
// in memory. Every index the hot path touches — the span-arena edge
// indexes, the sp/po pair tables, the name blob, a pointer-free name
// hash table replacing the byName map, and span-table forms of the four
// type/taxonomy assertion maps — is stored as a raw little-endian
// array, page-aligned, so a loader can mmap the file read-only and
// use the sections in place: "load" is one mmap plus demand page-in,
// and the pages are shared across every process serving the same
// snapshot. Graphs loaded this way are read-only (see Graph). The
// retired version 1 layout is recognized only to reject it with a
// hint to re-pack the file from its text source.
//
// Layout:
//
//	magic "DKBS" | u16 version=2 | u16 sectionCount
//	directory: sectionCount entries of 24 bytes each —
//	  u8 id | u8 flags (1 = raw/mmap-eligible) | u16 reserved |
//	  u32 CRC-32C(payload) | u64 absolute offset | u64 length
//	payloads; raw sections start on a snapPageSize boundary
//	(padding bytes are zero and excluded from the CRC)
//
// Raw sections are little-endian on every host. The mmap read path
// (LoadSnapshotFile) casts them in place and is compiled in on
// little-endian platforms with mmap support; everything else — other
// platforms, io.Reader sources, and kbtool — goes through
// decodeSnapshotV2, which verifies every section checksum and
// rebuilds heap-backed slices portably.
//
// The encoding is canonical: arenas are rewritten in ascending key
// order with ascending values and exact capacities (no dead ranges
// from incremental growth), so the same graph content always
// serializes to identical bytes regardless of construction order —
// `kbtool pack` is deterministic.
//
// Trust model: the mmap path checksums only the small varint sections
// it must decode (counts, preds) and bounds-checks every span table
// against its arena, so a corrupt file fails the load or panics on a
// bounds check rather than reading wild memory — but it does not CRC
// the big arenas or range-check the node IDs in them (touching every
// page would defeat the ~0ms load). The decode path does both.
// Deploy pipelines should run `kbtool verify` (which uses the fully
// checksummed decode path) before promoting a snapshot.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"unsafe"
)

// SnapshotVersion2 is the format version written by WriteSnapshotV2
// and the only one LoadSnapshot reads.
const SnapshotVersion2 = 2

// errSnapshotV1 rejects a file in the retired version 1 layout.
var errSnapshotV1 = errors.New("kb: DKBS v1 snapshots are no longer supported; re-pack the KB from its .nt source with `kbtool pack`")

// snapPageSize is the alignment raw sections are padded to — the
// page size mmap guarantees, on every platform this serves.
const snapPageSize = 4096

// v2 section IDs.
const (
	sec2Counts      byte = iota + 1 // varint: every count the loader needs
	sec2Preds                       // varint: sorted predicate IDs, delta-encoded
	sec2NameBytes                   // raw: concatenated name bytes
	sec2NameOffs                    // raw: u32 × (numNodes+1) name boundaries
	sec2NameTab                     // raw: nameSlot × nameTabSize
	sec2Kinds                       // raw: u8 × numNodes
	sec2TypeSpans                   // raw: pairSpan × numNodes (instance -> classes)
	sec2TypeIDs                     // raw: ID arena for sec2TypeSpans
	sec2InstOfSpans                 // raw: pairSpan × numNodes (class -> instances)
	sec2InstOfIDs
	sec2SuperSpans // raw: pairSpan × numNodes (class -> superclasses)
	sec2SuperIDs
	sec2SubSpans // raw: pairSpan × numNodes (class -> subclasses)
	sec2SubIDs
	sec2OutSpans // raw: pairSpan × numNodes (subject -> edges)
	sec2OutEdges // raw: Edge × tripleCount
	sec2InSpans  // raw: pairSpan × numNodes (object -> edges)
	sec2InEdges  // raw: Edge × tripleCount
	sec2SPKeys   // raw: u64 × spTabSize (subject,pred pair table)
	sec2SPSpans  // raw: pairSpan × spTabSize
	sec2SPIDs    // raw: ID × tripleCount
	sec2POKeys   // raw: u64 × poTabSize (pred,object pair table)
	sec2POSpans  // raw: pairSpan × poTabSize
	sec2POIDs    // raw: ID × tripleCount
	sec2Max
)

const dirEntryLen = 24

// hostLittleEndian gates the in-place cast path; big-endian hosts use
// the portable decoder.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mapping pins the mmap'd bytes a snapshot-backed graph reads from.
// Mappings are deliberately never unmapped: name strings and arena
// views handed out by the graph (repair results, memo entries, cached
// candidates) may outlive the Graph itself. A retired graph's pages
// stay mapped and count towards the process's RSS once touched (about
// 1 MB for a Nobel-1069 snapshot); the kernel may drop clean file
// pages under memory pressure, but they do not go away on their own.
//
// So each file version is mapped once per process (see mapSnapshot):
// re-admitting a tenant or reloading an unchanged snapshot reuses the
// mapping, and the number of mappings is bounded by the number of
// distinct snapshot versions loaded. Snapshots must be replaced by
// writing a new file and renaming it into place, never rewritten in
// place: a rewrite would change pages under every live graph mapped
// from the file (MAP_SHARED), and one that kept the size and mtime
// would also be mistaken for the version already mapped.
type mapping struct {
	path string
	data []byte
}

// mapKey identifies one version of a snapshot file: a replacement
// renamed into place has a new inode.
type mapKey struct {
	dev, ino    uint64
	size, mtime int64
}

// mappings holds the process's snapshot mappings, one per file version.
var mappings struct {
	sync.Mutex
	m map[mapKey]*mapping
}

// mapSnapshot returns the mapping of f's version st, mapping the file
// on first use.
func mapSnapshot(f *os.File, path string, st os.FileInfo) (*mapping, error) {
	key, ok := fileVersion(st)
	mappings.Lock()
	defer mappings.Unlock()
	if m := mappings.m[key]; ok && m != nil {
		return m, nil
	}
	data, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("kb: mmap %s: %w", path, err)
	}
	m := &mapping{path: path, data: data}
	if ok {
		if mappings.m == nil {
			mappings.m = make(map[mapKey]*mapping)
		}
		mappings.m[key] = m
	}
	return m, nil
}

// Mapped reports whether the graph reads its arenas from an mmap'd
// snapshot file.
func (g *Graph) Mapped() bool { return g.mapped != nil }

// v2Counts is the decoded counts section.
type v2Counts struct {
	numNodes                    int
	literalClass                ID
	tripleCount                 int
	gen                         int64
	numPreds                    int
	nameByteLen                 int
	nameTabSize                 int
	typeKeys, typeIDsLen        int
	instOfKeys, instOfIDsLen    int
	superKeys, superIDsLen      int
	subKeys, subIDsLen          int
	spTabSize, spUsed, spIDsLen int
	poTabSize, poUsed, poIDsLen int
}

func (c *v2Counts) fields() []struct {
	name string
	v    *int
} {
	return []struct {
		name string
		v    *int
	}{
		{"numPreds", &c.numPreds},
		{"nameByteLen", &c.nameByteLen},
		{"nameTabSize", &c.nameTabSize},
		{"typeKeys", &c.typeKeys}, {"typeIDsLen", &c.typeIDsLen},
		{"instOfKeys", &c.instOfKeys}, {"instOfIDsLen", &c.instOfIDsLen},
		{"superKeys", &c.superKeys}, {"superIDsLen", &c.superIDsLen},
		{"subKeys", &c.subKeys}, {"subIDsLen", &c.subIDsLen},
		{"spTabSize", &c.spTabSize}, {"spUsed", &c.spUsed}, {"spIDsLen", &c.spIDsLen},
		{"poTabSize", &c.poTabSize}, {"poUsed", &c.poUsed}, {"poIDsLen", &c.poIDsLen},
	}
}

// ---------------------------------------------------------------------------
// Writer

// WriteSnapshotV2 writes g in the DKBS v2 snapshot format. The output
// is canonical: the same graph content always yields identical bytes.
func (g *Graph) WriteSnapshotV2(w io.Writer) error {
	numNodes := g.NumNodes()

	// Name storage: blob + offsets + the open-addressing name table,
	// inserted in ID order so slot placement is deterministic.
	nameOffs := make([]uint32, numNodes+1)
	blobLen := 0
	for i := 0; i < numNodes; i++ {
		blobLen += len(g.Name(ID(i)))
	}
	blob := make([]byte, 0, blobLen)
	ntab := newNameTable(numNodes)
	for i := 0; i < numNodes; i++ {
		name := g.Name(ID(i))
		nameOffs[i] = uint32(len(blob))
		blob = append(blob, name...)
		ntab.insert(name, ID(i))
	}
	nameOffs[numNodes] = uint32(len(blob))

	kinds := make([]byte, numNodes)
	for i, k := range g.kinds {
		kinds[i] = byte(k)
	}

	// Assertion indexes in canonical span-table form, with the two
	// inverses derived from the forward sets so the four can never
	// disagree.
	typeSpans, typeIDs, typeKeys := canonIDList(numNodes, g.forEachTyped)
	instSpans, instIDs, instKeys := invertIDList(numNodes, typeSpans, typeIDs)
	superSpans, superIDs, superKeys := canonIDList(numNodes, g.forEachSubclassed)
	subSpans, subIDs, subKeys := invertIDList(numNodes, superSpans, superIDs)

	outSpans, outEdges := canonEdges(&g.out, numNodes)
	inSpans, inEdges := canonEdges(&g.in, numNodes)

	spKeys, spSpans, spIDs, spUsed := canonPairTable(g.sp)
	poKeys, poSpans, poIDs, poUsed := canonPairTable(g.po)

	counts := make([]byte, 0, 32*binary.MaxVarintLen64)
	c := v2Counts{
		numNodes: numNodes, literalClass: g.literalClass,
		tripleCount: g.tripleCount, gen: g.gen,
		numPreds: len(g.preds), nameByteLen: len(blob), nameTabSize: len(ntab.slots),
		typeKeys: typeKeys, typeIDsLen: len(typeIDs),
		instOfKeys: instKeys, instOfIDsLen: len(instIDs),
		superKeys: superKeys, superIDsLen: len(superIDs),
		subKeys: subKeys, subIDsLen: len(subIDs),
		spTabSize: len(spKeys), spUsed: spUsed, spIDsLen: len(spIDs),
		poTabSize: len(poKeys), poUsed: poUsed, poIDsLen: len(poIDs),
	}
	for _, v := range []uint64{
		uint64(c.numNodes), uint64(c.literalClass), uint64(c.tripleCount), uint64(c.gen),
	} {
		counts = binary.AppendUvarint(counts, v)
	}
	for _, f := range c.fields() {
		counts = binary.AppendUvarint(counts, uint64(*f.v))
	}

	preds := g.Predicates()
	pb := binary.AppendUvarint(nil, uint64(len(preds)))
	prev := ID(0)
	for i, p := range preds {
		if i == 0 {
			pb = binary.AppendUvarint(pb, uint64(p))
		} else {
			pb = binary.AppendUvarint(pb, uint64(p-prev))
		}
		prev = p
	}

	sections := []v2Section{
		{sec2Counts, false, counts},
		{sec2Preds, false, pb},
		{sec2NameBytes, true, blob},
		{sec2NameOffs, true, appendU32s(nil, nameOffs)},
		{sec2NameTab, true, appendSlots(nil, ntab.slots)},
		{sec2Kinds, true, kinds},
		{sec2TypeSpans, true, appendSpans(nil, typeSpans)},
		{sec2TypeIDs, true, appendIDs(nil, typeIDs)},
		{sec2InstOfSpans, true, appendSpans(nil, instSpans)},
		{sec2InstOfIDs, true, appendIDs(nil, instIDs)},
		{sec2SuperSpans, true, appendSpans(nil, superSpans)},
		{sec2SuperIDs, true, appendIDs(nil, superIDs)},
		{sec2SubSpans, true, appendSpans(nil, subSpans)},
		{sec2SubIDs, true, appendIDs(nil, subIDs)},
		{sec2OutSpans, true, appendSpans(nil, outSpans)},
		{sec2OutEdges, true, appendEdges(nil, outEdges)},
		{sec2InSpans, true, appendSpans(nil, inSpans)},
		{sec2InEdges, true, appendEdges(nil, inEdges)},
		{sec2SPKeys, true, appendU64s(nil, spKeys)},
		{sec2SPSpans, true, appendSpans(nil, spSpans)},
		{sec2SPIDs, true, appendIDs(nil, spIDs)},
		{sec2POKeys, true, appendU64s(nil, poKeys)},
		{sec2POSpans, true, appendSpans(nil, poSpans)},
		{sec2POIDs, true, appendIDs(nil, poIDs)},
	}
	return writeV2(w, sections)
}

type v2Section struct {
	id      byte
	raw     bool
	payload []byte
}

func writeV2(w io.Writer, sections []v2Section) error {
	// Lay out: header, directory, then payloads with raw sections
	// padded up to the next page boundary.
	hdrLen := len(snapshotMagic) + 4 + dirEntryLen*len(sections)
	off := int64(hdrLen)
	offsets := make([]int64, len(sections))
	for i, s := range sections {
		if s.raw {
			off = alignUp(off, snapPageSize)
		}
		offsets[i] = off
		off += int64(len(s.payload))
	}

	hdr := make([]byte, 0, hdrLen)
	hdr = append(hdr, snapshotMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, SnapshotVersion2)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(sections)))
	for i, s := range sections {
		var flags byte
		if s.raw {
			flags = 1
		}
		hdr = append(hdr, s.id, flags, 0, 0)
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(s.payload, crcTable))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(offsets[i]))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(s.payload)))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	pos := int64(hdrLen)
	var pad [snapPageSize]byte
	for i, s := range sections {
		if gap := offsets[i] - pos; gap > 0 {
			if _, err := w.Write(pad[:gap]); err != nil {
				return err
			}
			pos += gap
		}
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
		pos += int64(len(s.payload))
	}
	return nil
}

func alignUp(v, align int64) int64 {
	return (v + align - 1) &^ (align - 1)
}

// canonIDList builds the canonical span-table form of an ID -> []ID
// association: dense spans over every node, values sorted ascending,
// packed back to back with exact capacities.
func canonIDList(numNodes int, forEach func(func(ID, []ID))) (spans []pairSpan, arena []ID, keys int) {
	lists := make([][]ID, numNodes)
	forEach(func(k ID, vals []ID) { lists[k] = vals })
	spans = make([]pairSpan, numNodes)
	for k, vals := range lists {
		if len(vals) == 0 {
			continue
		}
		keys++
		cp := append([]ID(nil), vals...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		spans[k] = pairSpan{off: uint32(len(arena)), n: uint32(len(cp)), cap: uint32(len(cp))}
		arena = append(arena, cp...)
	}
	return spans, arena, keys
}

// invertIDList derives the inverse association (value -> keys) of a
// canonical span table. Iterating keys in ascending order makes every
// inverse list ascending without a sort.
func invertIDList(numNodes int, spans []pairSpan, arena []ID) (inv []pairSpan, invArena []ID, keys int) {
	counts := make([]uint32, numNodes)
	for _, s := range spans {
		for _, v := range arena[s.off : s.off+s.n] {
			counts[v]++
		}
	}
	inv = make([]pairSpan, numNodes)
	total := uint32(0)
	for v, n := range counts {
		if n == 0 {
			continue
		}
		keys++
		inv[v] = pairSpan{off: total, cap: n} // n grows as we fill
		total += n
	}
	invArena = make([]ID, total)
	for k := range spans {
		s := spans[k]
		for _, v := range arena[s.off : s.off+s.n] {
			sp := &inv[v]
			invArena[sp.off+sp.n] = ID(k)
			sp.n++
		}
	}
	return inv, invArena, keys
}

// canonEdges rebuilds an edge index as a dense, dead-range-free arena
// with every edge list sorted by (Pred, To).
func canonEdges(x *edgeIndex, numNodes int) (spans []pairSpan, edges []Edge) {
	spans = make([]pairSpan, numNodes)
	var scratch []Edge
	for k := 0; k < numNodes; k++ {
		es := x.view(ID(k))
		if len(es) == 0 {
			continue
		}
		scratch = append(scratch[:0], es...)
		sort.Slice(scratch, func(i, j int) bool {
			if scratch[i].Pred != scratch[j].Pred {
				return scratch[i].Pred < scratch[j].Pred
			}
			return scratch[i].To < scratch[j].To
		})
		spans[k] = pairSpan{off: uint32(len(edges)), n: uint32(len(scratch)), cap: uint32(len(scratch))}
		edges = append(edges, scratch...)
	}
	return spans, edges
}

// canonPairTable rebuilds a pair table canonically: keys inserted in
// ascending order (deterministic slot placement), values sorted
// ascending, arena packed with no dead ranges.
func canonPairTable(t *pairTable) (keys []uint64, spans []pairSpan, ids []ID, used int) {
	nt := flattenPairTable(t)
	return nt.keys, nt.spans, nt.ids, nt.used
}

// flattenPairTable rebuilds t as a canonical table: only keys with
// values, in ascending order.
func flattenPairTable(t *pairTable) *pairTable {
	ks := make([]uint64, 0, t.used)
	total := 0
	t.forEachKey(func(k uint64) {
		ks = append(ks, k)
		total += len(t.get(k))
	})
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	nt := newPairTable(len(ks), total)
	var vals []ID
	for _, k := range ks {
		vals = append(vals[:0], t.get(k)...)
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		nt.put(k, vals)
	}
	return nt
}

// Raw little-endian serializers. The writer always emits LE so files
// are portable; readers cast in place only on LE hosts.

func appendU32s(b []byte, v []uint32) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

func appendU64s(b []byte, v []uint64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

func appendSpans(b []byte, v []pairSpan) []byte {
	for _, s := range v {
		b = binary.LittleEndian.AppendUint32(b, s.off)
		b = binary.LittleEndian.AppendUint32(b, s.n)
		b = binary.LittleEndian.AppendUint32(b, s.cap)
	}
	return b
}

func appendEdges(b []byte, v []Edge) []byte {
	for _, e := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Pred))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.To))
	}
	return b
}

func appendIDs(b []byte, v []ID) []byte {
	for _, id := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return b
}

func appendSlots(b []byte, v []nameSlot) []byte {
	for _, s := range v {
		b = binary.LittleEndian.AppendUint64(b, s.hash)
		b = binary.LittleEndian.AppendUint32(b, s.idPlus1)
		b = binary.LittleEndian.AppendUint32(b, 0)
	}
	return b
}

// ---------------------------------------------------------------------------
// Directory

type dirEntry struct {
	id    byte
	flags byte
	crc   uint32
	off   int64
	n     int64
}

func (e dirEntry) raw() bool { return e.flags&1 != 0 }

// parseV2Directory validates the v2 header and returns the section
// directory keyed by section ID. size bounds every entry.
func parseV2Directory(hdr []byte, size int64) (map[byte]dirEntry, error) {
	if len(hdr) < 8 || string(hdr[:4]) != snapshotMagic {
		return nil, fmt.Errorf("kb: bad snapshot magic (not a KB snapshot)")
	}
	switch v := binary.LittleEndian.Uint16(hdr[4:6]); v {
	case SnapshotVersion2:
	case 1:
		return nil, errSnapshotV1
	default:
		return nil, fmt.Errorf("kb: unsupported snapshot version %d (this build reads version %d)", v, SnapshotVersion2)
	}
	n := int(binary.LittleEndian.Uint16(hdr[6:8]))
	if n == 0 || n > 64 {
		return nil, fmt.Errorf("kb: snapshot directory has implausible section count %d", n)
	}
	if len(hdr) < 8+n*dirEntryLen {
		return nil, fmt.Errorf("kb: snapshot truncated in the section directory")
	}
	dir := make(map[byte]dirEntry, n)
	for i := 0; i < n; i++ {
		b := hdr[8+i*dirEntryLen:]
		e := dirEntry{
			id:    b[0],
			flags: b[1],
			crc:   binary.LittleEndian.Uint32(b[4:8]),
			off:   int64(binary.LittleEndian.Uint64(b[8:16])),
			n:     int64(binary.LittleEndian.Uint64(b[16:24])),
		}
		if e.off < 0 || e.n < 0 || e.off+e.n > size {
			return nil, fmt.Errorf("kb: snapshot section %d out of bounds (off %d, len %d, file %d)", e.id, e.off, e.n, size)
		}
		if e.raw() && e.off%snapPageSize != 0 {
			return nil, fmt.Errorf("kb: snapshot raw section %d not page-aligned (offset %d)", e.id, e.off)
		}
		if _, dup := dir[e.id]; dup {
			return nil, fmt.Errorf("kb: duplicate snapshot section %d", e.id)
		}
		dir[e.id] = e
	}
	for id := byte(sec2Counts); id < sec2Max; id++ {
		if _, ok := dir[id]; !ok {
			return nil, fmt.Errorf("kb: snapshot section %d missing", id)
		}
	}
	return dir, nil
}

func decodeV2Counts(payload []byte) (*v2Counts, error) {
	var c v2Counts
	vr := varintReader{b: payload}
	get := func(name string) (uint64, error) {
		v, err := vr.uvarint()
		if err != nil {
			return 0, fmt.Errorf("kb: snapshot counts (%s): %w", name, err)
		}
		return v, nil
	}
	v, err := get("numNodes")
	if err != nil {
		return nil, err
	}
	c.numNodes = int(v)
	if v, err = get("literalClass"); err != nil {
		return nil, err
	}
	c.literalClass = ID(v)
	if v, err = get("tripleCount"); err != nil {
		return nil, err
	}
	c.tripleCount = int(v)
	if v, err = get("generation"); err != nil {
		return nil, err
	}
	c.gen = int64(v)
	for _, f := range c.fields() {
		if v, err = get(f.name); err != nil {
			return nil, err
		}
		*f.v = int(v)
	}
	if c.numNodes <= 0 || int(c.literalClass) >= c.numNodes {
		return nil, fmt.Errorf("kb: snapshot counts: literal class %d out of range of %d nodes", c.literalClass, c.numNodes)
	}
	if c.spIDsLen != c.tripleCount || c.poIDsLen != c.tripleCount {
		return nil, fmt.Errorf("kb: snapshot counts: pair arenas (%d, %d) disagree with triple count %d", c.spIDsLen, c.poIDsLen, c.tripleCount)
	}
	for _, tab := range []struct {
		name       string
		size, used int
	}{{"name table", c.nameTabSize, c.numNodes}, {"sp table", c.spTabSize, c.spUsed}, {"po table", c.poTabSize, c.poUsed}} {
		if tab.size < 8 || tab.size&(tab.size-1) != 0 {
			return nil, fmt.Errorf("kb: snapshot counts: %s size %d is not a power of two", tab.name, tab.size)
		}
		if 4*tab.used > 3*tab.size {
			return nil, fmt.Errorf("kb: snapshot counts: %s overfull (%d entries in %d slots)", tab.name, tab.used, tab.size)
		}
	}
	return &c, nil
}

// ---------------------------------------------------------------------------
// Portable decode path

// LoadSnapshot reads a graph written by WriteSnapshotV2 from any
// reader, decoding it onto the heap. Every section checksum and
// structural bound is verified; any corruption (bad magic, wrong
// version, checksum mismatch, truncated or missing section,
// out-of-range ID) fails the load, and a partially decoded graph never
// escapes.
func LoadSnapshot(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("kb: reading snapshot: %w", err)
	}
	return decodeSnapshotV2(data)
}

// decodeSnapshotV2 rebuilds a graph from v2 bytes on the heap,
// verifying every section checksum and every structural bound. It is
// the read path for io.Reader sources, non-mmap platforms, and
// kbtool verify.
func decodeSnapshotV2(data []byte) (*Graph, error) {
	dir, err := parseV2Directory(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	sec := func(id byte) ([]byte, error) {
		e := dir[id]
		p := data[e.off : e.off+e.n]
		if got := crc32.Checksum(p, crcTable); got != e.crc {
			return nil, fmt.Errorf("kb: snapshot section %d checksum mismatch (corrupt): got %08x, want %08x", id, got, e.crc)
		}
		return p, nil
	}
	cp, err := sec(sec2Counts)
	if err != nil {
		return nil, err
	}
	c, err := decodeV2Counts(cp)
	if err != nil {
		return nil, err
	}

	raw := make(map[byte][]byte, int(sec2Max))
	for id := byte(sec2Counts); id < sec2Max; id++ {
		p, err := sec(id)
		if err != nil {
			return nil, err
		}
		raw[id] = p
	}

	g := &Graph{}
	if err := g.initV2(c, func(id byte) []byte { return raw[id] }, nil); err != nil {
		return nil, err
	}
	return g, nil
}

// loadSnapshotMapped is the mmap read path: the raw sections are used
// in place as file pages. Only the varint sections are checksummed;
// span tables are bounds-checked against their arenas so a corrupt
// file cannot index outside the mapping. A reused mapping gets every
// check again.
func loadSnapshotMapped(f *os.File, path string) (*Graph, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < 8 {
		return nil, fmt.Errorf("kb: snapshot too small (%d bytes)", size)
	}
	m, err := mapSnapshot(f, path, st)
	if err != nil {
		return nil, err
	}
	data := m.data
	dir, err := parseV2Directory(data, size)
	if err != nil {
		return nil, err
	}
	for _, id := range []byte{sec2Counts, sec2Preds} {
		e := dir[id]
		p := data[e.off : e.off+e.n]
		if got := crc32.Checksum(p, crcTable); got != e.crc {
			return nil, fmt.Errorf("kb: snapshot section %d checksum mismatch (corrupt): got %08x, want %08x", id, got, e.crc)
		}
	}
	ce := dir[sec2Counts]
	c, err := decodeV2Counts(data[ce.off : ce.off+ce.n])
	if err != nil {
		return nil, err
	}
	g := &Graph{mapped: m}
	if err := g.initV2(c, func(id byte) []byte {
		e := dir[id]
		return data[e.off : e.off+e.n]
	}, castSections); err != nil {
		return nil, err
	}
	return g, nil
}

// sectionCaster turns a raw section's bytes into typed slices either
// by in-place cast (mmap path, LE hosts) or by portable elementwise
// decode (nil caster).
type sectionCaster struct {
	u32s  func([]byte) []uint32
	u64s  func([]byte) []uint64
	spans func([]byte) []pairSpan
	edges func([]byte) []Edge
	ids   func([]byte) []ID
	slots func([]byte) []nameSlot
	kinds func([]byte) []Kind
	blob  func([]byte) string
}

// castSections reinterprets raw LE sections in place — valid only on
// little-endian hosts over page-aligned mmap'd bytes.
var castSections = &sectionCaster{
	u32s:  castSlice[uint32],
	u64s:  castSlice[uint64],
	spans: castSlice[pairSpan],
	edges: castSlice[Edge],
	ids:   castSlice[ID],
	slots: castSlice[nameSlot],
	kinds: castSlice[Kind],
	blob: func(b []byte) string {
		if len(b) == 0 {
			return ""
		}
		return unsafe.String(&b[0], len(b))
	},
}

// decodeSections is the portable caster: heap copies, explicit LE.
var decodeSections = &sectionCaster{
	u32s: func(b []byte) []uint32 {
		out := make([]uint32, len(b)/4)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		return out
	},
	u64s: func(b []byte) []uint64 {
		out := make([]uint64, len(b)/8)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		return out
	},
	spans: func(b []byte) []pairSpan {
		out := make([]pairSpan, len(b)/12)
		for i := range out {
			out[i] = pairSpan{
				off: binary.LittleEndian.Uint32(b[12*i:]),
				n:   binary.LittleEndian.Uint32(b[12*i+4:]),
				cap: binary.LittleEndian.Uint32(b[12*i+8:]),
			}
		}
		return out
	},
	edges: func(b []byte) []Edge {
		out := make([]Edge, len(b)/8)
		for i := range out {
			out[i] = Edge{
				Pred: ID(binary.LittleEndian.Uint32(b[8*i:])),
				To:   ID(binary.LittleEndian.Uint32(b[8*i+4:])),
			}
		}
		return out
	},
	ids: func(b []byte) []ID {
		out := make([]ID, len(b)/4)
		for i := range out {
			out[i] = ID(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return out
	},
	slots: func(b []byte) []nameSlot {
		out := make([]nameSlot, len(b)/16)
		for i := range out {
			out[i] = nameSlot{
				hash:    binary.LittleEndian.Uint64(b[16*i:]),
				idPlus1: binary.LittleEndian.Uint32(b[16*i+8:]),
			}
		}
		return out
	},
	kinds: func(b []byte) []Kind {
		out := make([]Kind, len(b))
		for i, v := range b {
			out[i] = Kind(v)
		}
		return out
	},
	blob: func(b []byte) string { return string(b) },
}

// castSlice reinterprets b as a []T without copying. b must be
// aligned for T and its length a multiple of T's size — guaranteed by
// the page alignment the directory parser enforces and the length
// checks in initV2.
func castSlice[T any](b []byte) []T {
	var zero T
	n := len(b) / int(unsafe.Sizeof(zero))
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// initV2 populates g from v2 sections. section returns a section's
// (CRC-verified or mmap'd) payload; caster nil selects the portable
// decoder. Every span table is bounds-checked against its arena so
// later reads stay inside the section, whichever backing is in use.
func (g *Graph) initV2(c *v2Counts, section func(byte) []byte, caster *sectionCaster) error {
	cast := caster
	if cast == nil {
		cast = decodeSections
	}
	decoded := caster == nil
	want := func(id byte, bytes int) ([]byte, error) {
		p := section(id)
		if len(p) != bytes {
			return nil, fmt.Errorf("kb: snapshot section %d: got %d bytes, counts say %d", id, len(p), bytes)
		}
		return p, nil
	}
	// wantIDs is want for an arena of node IDs (edges are pred/to ID
	// pairs). The decode path rejects an ID outside the node range,
	// naming the section; the mmap path leaves the arenas unread at
	// load (see the trust model above).
	wantIDs := func(id byte, bytes int) ([]byte, error) {
		p, err := want(id, bytes)
		if err != nil || !decoded {
			return p, err
		}
		for i := 0; i+4 <= len(p); i += 4 {
			if v := int32(binary.LittleEndian.Uint32(p[i:])); v < 0 || int(v) >= c.numNodes {
				return nil, fmt.Errorf("kb: snapshot section %d (%s): ID %d out of range of %d nodes", id, v2SectionNames[id], v, c.numNodes)
			}
		}
		return p, nil
	}

	// Names.
	bp, err := want(sec2NameBytes, c.nameByteLen)
	if err != nil {
		return err
	}
	op, err := want(sec2NameOffs, 4*(c.numNodes+1))
	if err != nil {
		return err
	}
	tp, err := want(sec2NameTab, 16*c.nameTabSize)
	if err != nil {
		return err
	}
	g.nameBlob = cast.blob(bp)
	g.nameOffs = cast.u32s(op)
	g.nameTab = nameTable{slots: cast.slots(tp), shift: 64 - log2(c.nameTabSize)}
	prevOff := uint32(0)
	for i, o := range g.nameOffs {
		if o < prevOff || o > uint32(c.nameByteLen) {
			return fmt.Errorf("kb: snapshot name offsets: entry %d (%d) out of order or out of range", i, o)
		}
		prevOff = o
	}
	if g.nameOffs[c.numNodes] != uint32(c.nameByteLen) {
		return fmt.Errorf("kb: snapshot name offsets: final offset %d != name bytes %d", g.nameOffs[c.numNodes], c.nameByteLen)
	}
	occupied := 0
	for i, s := range g.nameTab.slots {
		if s.idPlus1 == 0 {
			continue
		}
		occupied++
		if int(s.idPlus1) > c.numNodes {
			return fmt.Errorf("kb: snapshot name table: slot %d holds ID %d, out of range", i, s.idPlus1-1)
		}
	}
	if occupied != c.numNodes {
		return fmt.Errorf("kb: snapshot name table: %d occupied slots for %d nodes", occupied, c.numNodes)
	}

	// Kinds.
	kp, err := want(sec2Kinds, c.numNodes)
	if err != nil {
		return err
	}
	g.kinds = cast.kinds(kp)
	for i, k := range g.kinds {
		if k > KindLiteral {
			return fmt.Errorf("kb: snapshot kinds: node %d has invalid kind %d", i, k)
		}
	}

	// Assertion span tables.
	loadIdx := func(spanID, idsID byte, idsLen int, dst *idListIndex) error {
		sp, err := want(spanID, 12*c.numNodes)
		if err != nil {
			return err
		}
		ip, err := wantIDs(idsID, 4*idsLen)
		if err != nil {
			return err
		}
		dst.spans = cast.spans(sp)
		dst.ids = cast.ids(ip)
		return checkSpans(spanID, dst.spans, idsLen)
	}
	if err := loadIdx(sec2TypeSpans, sec2TypeIDs, c.typeIDsLen, &g.typesIdx); err != nil {
		return err
	}
	if err := loadIdx(sec2InstOfSpans, sec2InstOfIDs, c.instOfIDsLen, &g.instOfIdx); err != nil {
		return err
	}
	if err := loadIdx(sec2SuperSpans, sec2SuperIDs, c.superIDsLen, &g.superOfIdx); err != nil {
		return err
	}
	if err := loadIdx(sec2SubSpans, sec2SubIDs, c.subIDsLen, &g.subOfIdx); err != nil {
		return err
	}

	// Edge indexes.
	loadEdges := func(spanID, edgesID byte, dst *edgeIndex) error {
		sp, err := want(spanID, 12*c.numNodes)
		if err != nil {
			return err
		}
		ep, err := wantIDs(edgesID, 8*c.tripleCount)
		if err != nil {
			return err
		}
		dst.spans = cast.spans(sp)
		dst.edges = cast.edges(ep)
		return checkSpans(spanID, dst.spans, c.tripleCount)
	}
	if err := loadEdges(sec2OutSpans, sec2OutEdges, &g.out); err != nil {
		return err
	}
	if err := loadEdges(sec2InSpans, sec2InEdges, &g.in); err != nil {
		return err
	}

	// Pair tables.
	loadPair := func(keysID, spansID, idsID byte, size, used, idsLen int) (*pairTable, error) {
		kp, err := want(keysID, 8*size)
		if err != nil {
			return nil, err
		}
		sp, err := want(spansID, 12*size)
		if err != nil {
			return nil, err
		}
		ip, err := wantIDs(idsID, 4*idsLen)
		if err != nil {
			return nil, err
		}
		t := &pairTable{
			keys:  cast.u64s(kp),
			spans: cast.spans(sp),
			ids:   cast.ids(ip),
			used:  used,
			shift: 64 - log2(size),
		}
		nonzero, total := 0, 0
		for i, k := range t.keys {
			if k == 0 {
				continue
			}
			nonzero++
			s := t.spans[i]
			if int(s.off)+int(s.n) > idsLen || s.cap < s.n {
				return nil, fmt.Errorf("kb: snapshot section %d: slot %d span out of range", spansID, i)
			}
			total += int(s.n)
			if !decoded {
				continue
			}
			if j, _ := t.find(k); j != i {
				return nil, fmt.Errorf("kb: snapshot section %d: slot %d holds a key that probing finds in slot %d", keysID, i, j)
			}
		}
		if nonzero != used {
			return nil, fmt.Errorf("kb: snapshot section %d: %d occupied slots, counts say %d", keysID, nonzero, used)
		}
		if total != idsLen {
			return nil, fmt.Errorf("kb: snapshot section %d: spans hold %d IDs, arena has %d", spansID, total, idsLen)
		}
		return t, nil
	}
	if g.sp, err = loadPair(sec2SPKeys, sec2SPSpans, sec2SPIDs, c.spTabSize, c.spUsed, c.spIDsLen); err != nil {
		return err
	}
	if g.po, err = loadPair(sec2POKeys, sec2POSpans, sec2POIDs, c.poTabSize, c.poUsed, c.poIDsLen); err != nil {
		return err
	}

	// Predicates (small; always a heap map).
	pp := section(sec2Preds)
	vr := varintReader{b: pp}
	np, err := vr.uvarint()
	if err != nil {
		return fmt.Errorf("kb: snapshot preds: %w", err)
	}
	if int(np) != c.numPreds {
		return fmt.Errorf("kb: snapshot preds: %d entries, counts say %d", np, c.numPreds)
	}
	g.preds = make(map[ID]struct{}, c.numPreds)
	var p ID
	for i := 0; i < int(np); i++ {
		d, err := vr.uvarint()
		if err != nil {
			return fmt.Errorf("kb: snapshot preds: %w", err)
		}
		if i == 0 {
			p = ID(d)
		} else {
			p += ID(d)
		}
		if int(p) >= c.numNodes {
			return fmt.Errorf("kb: snapshot preds: predicate ID %d out of range", p)
		}
		g.preds[p] = struct{}{}
	}

	g.tripleCount = c.tripleCount
	g.gen = c.gen
	g.literalClass = c.literalClass
	g.closureDirty = true
	return nil
}

// checkSpans bounds-checks a span table against its arena length so
// every later view stays inside the section, and requires the spans to
// hold as many entries as the arena, as the canonical writer lays
// them out; otherwise a re-written snapshot would disagree with its
// own counts.
func checkSpans(secID byte, spans []pairSpan, arenaLen int) error {
	total := 0
	for i, s := range spans {
		if int(s.off)+int(s.n) > arenaLen || s.cap < s.n {
			return fmt.Errorf("kb: snapshot section %d: span %d out of range of arena %d", secID, i, arenaLen)
		}
		total += int(s.n)
	}
	if total != arenaLen {
		return fmt.Errorf("kb: snapshot section %d: spans hold %d entries, arena has %d", secID, total, arenaLen)
	}
	return nil
}

// ---------------------------------------------------------------------------
// File loading

// LoadSnapshotFile loads a DKBS snapshot from disk. It is mmap'd and
// used in place when the platform supports it (Linux, little-endian),
// making the load nearly free and the graph's memory shared across
// processes; other platforms take the buffered decode path. Any
// mmap-path failure falls back to the decode path, whose errors are
// authoritative.
func LoadSnapshotFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("kb: reading snapshot header: %w", err)
	}
	// Only a v2 header is mapped: a failed mapped load is never
	// unmapped (see mapping), so other files go straight to the decode
	// path, which reports what is wrong with them.
	if string(hdr[:4]) == snapshotMagic &&
		binary.LittleEndian.Uint16(hdr[4:6]) == SnapshotVersion2 &&
		mmapSupported && hostLittleEndian {
		if g, err := loadSnapshotMapped(f, path); err == nil {
			return g, nil
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return LoadSnapshot(f)
}

// ---------------------------------------------------------------------------
// Inspection (kbtool info)

// SectionInfo describes one snapshot section for tooling.
type SectionInfo struct {
	ID      byte   `json:"id"`
	Name    string `json:"name"`
	Offset  int64  `json:"offset"`
	Length  int64  `json:"length"`
	CRC     uint32 `json:"crc32c"`
	Raw     bool   `json:"mmapEligible"`
	Aligned bool   `json:"pageAligned"`
}

// SnapshotInfo is the section table of a DKBS file, readable without
// decoding the graph.
type SnapshotInfo struct {
	Version  int           `json:"version"`
	FileSize int64         `json:"fileSize"`
	Sections []SectionInfo `json:"sections"`
}

var v2SectionNames = map[byte]string{
	sec2Counts: "counts", sec2Preds: "preds",
	sec2NameBytes: "nameBytes", sec2NameOffs: "nameOffs", sec2NameTab: "nameTab",
	sec2Kinds:     "kinds",
	sec2TypeSpans: "typeSpans", sec2TypeIDs: "typeIDs",
	sec2InstOfSpans: "instOfSpans", sec2InstOfIDs: "instOfIDs",
	sec2SuperSpans: "superSpans", sec2SuperIDs: "superIDs",
	sec2SubSpans: "subSpans", sec2SubIDs: "subIDs",
	sec2OutSpans: "outSpans", sec2OutEdges: "outEdges",
	sec2InSpans: "inSpans", sec2InEdges: "inEdges",
	sec2SPKeys: "spKeys", sec2SPSpans: "spSpans", sec2SPIDs: "spIDs",
	sec2POKeys: "poKeys", sec2POSpans: "poSpans", sec2POIDs: "poIDs",
}

// ReadSnapshotInfo reads a snapshot's header and section table —
// version, per-section offset/length/CRC, alignment and
// mmap-eligibility — without decoding any payload, so deploy scripts
// can inspect multi-gigabyte snapshots instantly.
func ReadSnapshotInfo(path string) (*SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var cnt [8]byte
	if _, err := io.ReadFull(f, cnt[:]); err != nil {
		return nil, fmt.Errorf("kb: reading snapshot header: %w", err)
	}
	hdr := make([]byte, 8+int(binary.LittleEndian.Uint16(cnt[6:8]))*dirEntryLen)
	n, err := f.ReadAt(hdr, 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("kb: reading snapshot directory: %w", err)
	}
	// parseV2Directory rejects a bad header before a short directory.
	dir, err := parseV2Directory(hdr[:n], st.Size())
	if err != nil {
		return nil, err
	}
	info := &SnapshotInfo{Version: SnapshotVersion2, FileSize: st.Size()}
	ids := make([]byte, 0, len(dir))
	for id := range dir {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return dir[ids[i]].off < dir[ids[j]].off })
	for _, id := range ids {
		e := dir[id]
		name := v2SectionNames[id]
		if name == "" {
			name = fmt.Sprintf("unknown(%d)", id)
		}
		info.Sections = append(info.Sections, SectionInfo{
			ID: id, Name: name, Offset: e.off, Length: e.n, CRC: e.crc,
			Raw: e.raw(), Aligned: e.off%snapPageSize == 0,
		})
	}
	return info, nil
}
