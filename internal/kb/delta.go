package kb

// Incremental KB deltas (DKBD). Production KBs evolve by small edits;
// reloading a whole snapshot for every edit decodes (or at least maps
// and re-freezes) the full graph. A delta is the canonical difference
// between two graph contents — triples, type assertions and subclass
// edges added or removed, keyed by node *name* so it is independent of
// either graph's ID assignment — and ApplyDelta builds the next
// generation from the live graph in the flat layout a loaded snapshot
// has. Indexes the delta leaves alone (name storage, the type/taxonomy
// span tables, the frozen closures) are shared with the base outright;
// an index it touches is copied whole into a fresh arena that holds
// only live entries, with the touched lists merged. In-flight requests
// keep the generation they pinned; the generation bump invalidates
// memo and candidate caches exactly like a full swap.
//
// File format (all integers little-endian, "uv" = unsigned varint):
//
//	magic "DKBD" | u16 version=1 | u16 reserved
//	then sections (u8 id | u32 CRC-32C | u64 len | payload),
//	terminated by the end section:
//	  header    uv: baseNodes, baseTriples, baseFP, newFP
//	  names     uv count, count uv name lengths, name bytes,
//	            count kind bytes — every node any op references, sorted
//	            lexicographically, with the node's kind in the *new*
//	            graph (or the old one for nodes that only survive there)
//	  tripleDel / tripleAdd   uv count, count (uv s, uv p, uv o)
//	  typeDel   / typeAdd     uv count, count (uv inst, uv cls)
//	  subDel    / subAdd      uv count, count (uv sub, uv super)
//	  end       empty
//
// Op values are indexes into the delta's name table; op lists are
// sorted, so Diff output is byte-deterministic (CI's delta-check gate
// verifies this).
//
// Base identification is by *content fingerprint*, not generation or
// node count: the fingerprint is an order- and ID-independent sum over
// the graph's assertions, so a text-parsed graph, a decoded or mmap'd
// snapshot and a delta-applied graph of equal content all agree
// on it. Node counts deliberately do not participate: applying a delta
// cannot compact nodes the new content no longer references (their IDs
// are baked into shared arenas), so an applied graph may carry orphan
// nodes — and orphaned predicate entries — that contribute nothing to
// any assertion. Chained deltas therefore keep verifying: only content
// matters.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
)

const (
	deltaMagic = "DKBD"
	// DeltaVersion is the format version written by Delta.Write and
	// required by ReadDelta.
	DeltaVersion = 1
)

// Delta section IDs.
const (
	dsecHeader byte = iota + 1
	dsecNames
	dsecTripleDel
	dsecTripleAdd
	dsecTypeDel
	dsecTypeAdd
	dsecSubDel
	dsecSubAdd
	dsecEnd
)

// Delta is the parsed form of a DKBD file: the canonical, name-keyed
// difference between a base graph content and a new one. Op values
// index Names/Kinds.
type Delta struct {
	// BaseNodes/BaseTriples describe the graph the delta was diffed
	// against. Only BaseTriples is enforced by ApplyDelta (node counts
	// differ across equal-content graphs once orphans exist).
	BaseNodes   int
	BaseTriples int
	// BaseFP must match the live graph's Fingerprint for the delta to
	// apply; NewFP is the fingerprint the applied graph must have.
	BaseFP uint64
	NewFP  uint64

	// Names lists every node any op references, sorted; Kinds carries
	// each name's kind in the new content.
	Names []string
	Kinds []Kind

	TripleDel, TripleAdd [][3]int32 // (subject, predicate, object)
	TypeDel, TypeAdd     [][2]int32 // (instance, class)
	SubDel, SubAdd       [][2]int32 // (subclass, superclass)
}

// Ops returns the total number of assertion edits in the delta.
func (d *Delta) Ops() int {
	return len(d.TripleDel) + len(d.TripleAdd) +
		len(d.TypeDel) + len(d.TypeAdd) +
		len(d.SubDel) + len(d.SubAdd)
}

// TriplesTouched returns how many relationship/property triples the
// delta removes plus adds (the unit the delta metrics count).
func (d *Delta) TriplesTouched() int { return len(d.TripleDel) + len(d.TripleAdd) }

// String summarizes the delta for logs and tooling.
func (d *Delta) String() string {
	return fmt.Sprintf("kb.Delta{names=%d -%d/+%d triples -%d/+%d types -%d/+%d subclasses}",
		len(d.Names), len(d.TripleDel), len(d.TripleAdd),
		len(d.TypeDel), len(d.TypeAdd), len(d.SubDel), len(d.SubAdd))
}

// ---------------------------------------------------------------------------
// Content fingerprint

// fpMemo caches a computed fingerprint for one generation. The pointer
// swap is atomic so concurrent readers of a frozen graph may race to
// compute and publish it safely.
type fpMemo struct {
	gen int64
	fp  uint64
}

// Mixing constants for the per-assertion fingerprint terms (splitmix64
// finalizer over tag-chained inputs). Stable: part of the DKBD format.
const (
	fpTagTriple = 0xA24BAED4963EE407
	fpTagType   = 0x9FB21C651E98DF25
	fpTagSub    = 0xD6E8FEB86659FD93
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fpTerm is one assertion's contribution: order-sensitive in (a, b, c)
// so (s,p,o) permutations differ, while the outer sum over terms is
// order-insensitive.
func fpTerm(tag, a, b, c uint64) uint64 {
	h := mix64(tag + a)
	h = mix64(h + b)
	return mix64(h + c)
}

// litBit folds the only kind distinction the canonical text encoding
// gives a triple object — literal vs node — into its term.
func litBit(k Kind) uint64 {
	if k == KindLiteral {
		return 1
	}
	return 0
}

// Fingerprint returns the graph's content fingerprint: a commutative
// sum of one mixed term per triple (with the object's literal-ness),
// per type assertion and per subclass edge, over name hashes. Graphs
// of equal canonical text content always agree regardless of storage
// form, ID assignment or construction order; orphan nodes contribute
// nothing. The result is cached per generation; computing it costs one
// pass over the graph.
func (g *Graph) Fingerprint() uint64 {
	if m := g.fp.Load(); m != nil && m.gen == g.gen {
		return m.fp
	}
	f := g.computeFingerprint()
	g.fp.Store(&fpMemo{gen: g.gen, fp: f})
	return f
}

func (g *Graph) computeFingerprint() uint64 {
	n := g.NumNodes()
	nh := make([]uint64, n)
	for i := 0; i < n; i++ {
		nh[i] = nameHash(g.Name(ID(i)))
	}
	var sum uint64
	for s := 0; s < n; s++ {
		for _, e := range g.Out(ID(s)) {
			sum += fpTerm(fpTagTriple, nh[s], nh[e.Pred], nh[e.To]+litBit(g.kinds[e.To]))
		}
	}
	g.forEachTyped(func(inst ID, classes []ID) {
		for _, c := range classes {
			sum += fpTerm(fpTagType, nh[inst], nh[c], 0)
		}
	})
	g.forEachSubclassed(func(sub ID, supers []ID) {
		for _, sup := range supers {
			sum += fpTerm(fpTagSub, nh[sub], nh[sup], 0)
		}
	})
	return sum
}

// ---------------------------------------------------------------------------
// Diff

func containsID(s []ID, v ID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Diff computes the canonical delta that transforms old's content into
// new's. The comparison is by node name, so the two graphs may use any
// storage form and any ID assignment. The output is deterministic:
// diffing the same two contents always yields identical bytes.
func Diff(old, new *Graph) *Delta {
	d := &Delta{
		BaseNodes:   old.NumNodes(),
		BaseTriples: old.NumTriples(),
		BaseFP:      old.Fingerprint(),
		NewFP:       new.Fingerprint(),
	}

	oldN, newN := old.NumNodes(), new.NumNodes()
	n2o := make([]ID, newN)
	for i := 0; i < newN; i++ {
		n2o[i] = old.Lookup(new.Name(ID(i)))
	}
	o2n := make([]ID, oldN)
	for i := 0; i < oldN; i++ {
		o2n[i] = new.Lookup(old.Name(ID(i)))
	}

	idx := make(map[string]int32, 16)
	local := func(name string, k Kind) int32 {
		if i, ok := idx[name]; ok {
			return i
		}
		i := int32(len(d.Names))
		idx[name] = i
		d.Names = append(d.Names, name)
		d.Kinds = append(d.Kinds, k)
		return i
	}
	// A name's recorded kind is its kind in the new content; names that
	// only survive in the base keep their old kind so applying the
	// delta never mutates them.
	localNew := func(id ID) int32 { return local(new.Name(id), new.kinds[id]) }
	localOld := func(id ID) int32 {
		if n := o2n[id]; n != Invalid {
			return local(old.Name(id), new.kinds[n])
		}
		return local(old.Name(id), old.kinds[id])
	}

	for s := 0; s < newN; s++ {
		for _, e := range new.Out(ID(s)) {
			os, op, oo := n2o[s], n2o[e.Pred], n2o[e.To]
			if os == Invalid || op == Invalid || oo == Invalid || !old.HasEdge(os, op, oo) {
				d.TripleAdd = append(d.TripleAdd, [3]int32{localNew(ID(s)), localNew(e.Pred), localNew(e.To)})
			}
		}
	}
	for s := 0; s < oldN; s++ {
		for _, e := range old.Out(ID(s)) {
			ns, np, no := o2n[s], o2n[e.Pred], o2n[e.To]
			if ns == Invalid || np == Invalid || no == Invalid || !new.HasEdge(ns, np, no) {
				d.TripleDel = append(d.TripleDel, [3]int32{localOld(ID(s)), localOld(e.Pred), localOld(e.To)})
			}
		}
	}

	new.forEachTyped(func(inst ID, classes []ID) {
		oi := n2o[inst]
		for _, c := range classes {
			if oc := n2o[c]; oi == Invalid || oc == Invalid || !containsID(old.directTypes(oi), oc) {
				d.TypeAdd = append(d.TypeAdd, [2]int32{localNew(inst), localNew(c)})
			}
		}
	})
	old.forEachTyped(func(inst ID, classes []ID) {
		ni := o2n[inst]
		for _, c := range classes {
			if nc := o2n[c]; ni == Invalid || nc == Invalid || !containsID(new.directTypes(ni), nc) {
				d.TypeDel = append(d.TypeDel, [2]int32{localOld(inst), localOld(c)})
			}
		}
	})
	new.forEachSubclassed(func(sub ID, supers []ID) {
		os := n2o[sub]
		for _, sup := range supers {
			if osup := n2o[sup]; os == Invalid || osup == Invalid || !containsID(old.directSupers(os), osup) {
				d.SubAdd = append(d.SubAdd, [2]int32{localNew(sub), localNew(sup)})
			}
		}
	})
	old.forEachSubclassed(func(sub ID, supers []ID) {
		ns := o2n[sub]
		for _, sup := range supers {
			if nsup := o2n[sup]; ns == Invalid || nsup == Invalid || !containsID(new.directSupers(ns), nsup) {
				d.SubDel = append(d.SubDel, [2]int32{localOld(sub), localOld(sup)})
			}
		}
	})

	// Nodes in both graphs whose kind changed, even when no assertion
	// edit references them: the name-table entry alone carries the fix.
	for i := 0; i < newN; i++ {
		if o := n2o[i]; o != Invalid && old.kinds[o] != new.kinds[i] {
			localNew(ID(i))
		}
	}

	d.canonicalize()
	return d
}

// canonicalize sorts the name table lexicographically, remaps every op
// and sorts the op lists — insertion order (which follows map
// iteration in the mutable storage form) stops mattering, making Diff
// output deterministic.
func (d *Delta) canonicalize() {
	order := make([]int32, len(d.Names))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return d.Names[order[i]] < d.Names[order[j]] })
	rank := make([]int32, len(d.Names))
	names := make([]string, len(d.Names))
	kinds := make([]Kind, len(d.Names))
	for r, o := range order {
		rank[o] = int32(r)
		names[r] = d.Names[o]
		kinds[r] = d.Kinds[o]
	}
	d.Names, d.Kinds = names, kinds
	for _, ops := range [][][3]int32{d.TripleDel, d.TripleAdd} {
		for i, t := range ops {
			ops[i] = [3]int32{rank[t[0]], rank[t[1]], rank[t[2]]}
		}
		sort.Slice(ops, func(i, j int) bool { return less3(ops[i], ops[j]) })
	}
	for _, ops := range [][][2]int32{d.TypeDel, d.TypeAdd, d.SubDel, d.SubAdd} {
		for i, t := range ops {
			ops[i] = [2]int32{rank[t[0]], rank[t[1]]}
		}
		sort.Slice(ops, func(i, j int) bool { return less2(ops[i], ops[j]) })
	}
}

func less3(a, b [3]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

func less2(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// ---------------------------------------------------------------------------
// Serialization

// Write serializes the delta in the DKBD format. Output is canonical
// for a canonicalized delta (Diff always canonicalizes).
func (d *Delta) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(deltaMagic); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], DeltaVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	h := make([]byte, 0, 6*binary.MaxVarintLen64)
	for _, v := range []uint64{uint64(d.BaseNodes), uint64(d.BaseTriples), d.BaseFP, d.NewFP} {
		h = binary.AppendUvarint(h, v)
	}
	if err := writeSection(bw, dsecHeader, h); err != nil {
		return err
	}

	nb := binary.AppendUvarint(nil, uint64(len(d.Names)))
	for _, nm := range d.Names {
		nb = binary.AppendUvarint(nb, uint64(len(nm)))
	}
	for _, nm := range d.Names {
		nb = append(nb, nm...)
	}
	for _, k := range d.Kinds {
		nb = append(nb, byte(k))
	}
	if err := writeSection(bw, dsecNames, nb); err != nil {
		return err
	}

	w3 := func(id byte, ops [][3]int32) error {
		b := binary.AppendUvarint(nil, uint64(len(ops)))
		for _, t := range ops {
			b = binary.AppendUvarint(b, uint64(t[0]))
			b = binary.AppendUvarint(b, uint64(t[1]))
			b = binary.AppendUvarint(b, uint64(t[2]))
		}
		return writeSection(bw, id, b)
	}
	w2 := func(id byte, ops [][2]int32) error {
		b := binary.AppendUvarint(nil, uint64(len(ops)))
		for _, t := range ops {
			b = binary.AppendUvarint(b, uint64(t[0]))
			b = binary.AppendUvarint(b, uint64(t[1]))
		}
		return writeSection(bw, id, b)
	}
	if err := w3(dsecTripleDel, d.TripleDel); err != nil {
		return err
	}
	if err := w3(dsecTripleAdd, d.TripleAdd); err != nil {
		return err
	}
	if err := w2(dsecTypeDel, d.TypeDel); err != nil {
		return err
	}
	if err := w2(dsecTypeAdd, d.TypeAdd); err != nil {
		return err
	}
	if err := w2(dsecSubDel, d.SubDel); err != nil {
		return err
	}
	if err := w2(dsecSubAdd, d.SubAdd); err != nil {
		return err
	}
	if err := writeSection(bw, dsecEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadDelta parses a DKBD delta. Every section is checksum-verified
// and every op index bounds-checked against the name table, so a
// corrupt or truncated delta fails here rather than during apply.
func ReadDelta(r io.Reader) (*Delta, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("kb: reading delta: %w", err)
	}
	if len(data) < len(deltaMagic)+4 || string(data[:4]) != deltaMagic {
		return nil, fmt.Errorf("kb: bad delta magic (not a DKBD delta)")
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != DeltaVersion {
		return nil, fmt.Errorf("kb: unsupported delta version %d (this build reads version %d)", v, DeltaVersion)
	}

	secs := make(map[byte][]byte, 9)
	crcs := make(map[byte]uint32, 9)
	off := len(deltaMagic) + 4
	sawEnd := false
	for off < len(data) {
		if len(data)-off < sectionHeaderLen {
			return nil, fmt.Errorf("kb: delta truncated in section header at offset %d", off)
		}
		id := data[off]
		crc := binary.LittleEndian.Uint32(data[off+1 : off+5])
		n := binary.LittleEndian.Uint64(data[off+5 : off+13])
		off += sectionHeaderLen
		if n > uint64(len(data)-off) {
			return nil, fmt.Errorf("kb: delta section %d truncated: need %d bytes, have %d", id, n, len(data)-off)
		}
		payload := data[off : off+int(n)]
		off += int(n)
		if id == dsecEnd {
			sawEnd = true
			break
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("kb: duplicate delta section %d", id)
		}
		secs[id] = payload
		crcs[id] = crc
	}
	if !sawEnd {
		return nil, fmt.Errorf("kb: delta truncated: end section missing")
	}
	checked := func(id byte) ([]byte, error) {
		p, ok := secs[id]
		if !ok {
			return nil, fmt.Errorf("kb: delta section %d missing", id)
		}
		if got := crc32.Checksum(p, crcTable); got != crcs[id] {
			return nil, fmt.Errorf("kb: delta section %d checksum mismatch (corrupt): got %08x, want %08x", id, got, crcs[id])
		}
		return p, nil
	}

	d := &Delta{}
	hp, err := checked(dsecHeader)
	if err != nil {
		return nil, err
	}
	hr := varintReader{b: hp}
	for _, f := range []struct {
		name string
		set  func(uint64)
	}{
		{"baseNodes", func(v uint64) { d.BaseNodes = int(v) }},
		{"baseTriples", func(v uint64) { d.BaseTriples = int(v) }},
		{"baseFP", func(v uint64) { d.BaseFP = v }},
		{"newFP", func(v uint64) { d.NewFP = v }},
	} {
		v, err := hr.uvarint()
		if err != nil {
			return nil, fmt.Errorf("kb: delta header (%s): %w", f.name, err)
		}
		f.set(v)
	}

	np, err := checked(dsecNames)
	if err != nil {
		return nil, err
	}
	nr := varintReader{b: np}
	cnt, err := nr.uvarint()
	if err != nil {
		return nil, fmt.Errorf("kb: delta names: %w", err)
	}
	if cnt > uint64(len(np)) {
		return nil, fmt.Errorf("kb: delta names: implausible count %d in %d payload bytes", cnt, len(np))
	}
	lens := make([]int, cnt)
	total := 0
	for i := range lens {
		v, err := nr.uvarint()
		if err != nil {
			return nil, fmt.Errorf("kb: delta name lengths: %w", err)
		}
		lens[i] = int(v)
		total += int(v)
	}
	if nr.off+total+int(cnt) != len(np) {
		return nil, fmt.Errorf("kb: delta names: payload is %d bytes, layout needs %d", len(np), nr.off+total+int(cnt))
	}
	blob := string(np[nr.off : nr.off+total])
	d.Names = make([]string, cnt)
	pos := 0
	for i, n := range lens {
		d.Names[i] = blob[pos : pos+n]
		pos += n
	}
	d.Kinds = make([]Kind, cnt)
	for i, b := range np[nr.off+total:] {
		if b > byte(KindLiteral) {
			return nil, fmt.Errorf("kb: delta names: entry %d has invalid kind %d", i, b)
		}
		d.Kinds[i] = Kind(b)
	}

	r3 := func(id byte, what string) ([][3]int32, error) {
		p, err := checked(id)
		if err != nil {
			return nil, err
		}
		vr := varintReader{b: p}
		n, err := vr.uvarint()
		if err != nil {
			return nil, fmt.Errorf("kb: delta %s: %w", what, err)
		}
		// Every op is three varints of at least one byte each: a count
		// past that is corrupt, and must fail before it sizes an
		// allocation.
		if n > uint64(len(p)-vr.off)/3 {
			return nil, fmt.Errorf("kb: delta %s: implausible op count %d in %d payload bytes", what, n, len(p))
		}
		if n == 0 {
			return nil, nil
		}
		ops := make([][3]int32, n)
		for i := range ops {
			for j := 0; j < 3; j++ {
				v, err := vr.uvarint()
				if err != nil {
					return nil, fmt.Errorf("kb: delta %s op %d: %w", what, i, err)
				}
				if v >= cnt {
					return nil, fmt.Errorf("kb: delta %s op %d references name %d of %d", what, i, v, cnt)
				}
				ops[i][j] = int32(v)
			}
		}
		return ops, nil
	}
	r2 := func(id byte, what string) ([][2]int32, error) {
		p, err := checked(id)
		if err != nil {
			return nil, err
		}
		vr := varintReader{b: p}
		n, err := vr.uvarint()
		if err != nil {
			return nil, fmt.Errorf("kb: delta %s: %w", what, err)
		}
		if n > uint64(len(p)-vr.off)/2 {
			return nil, fmt.Errorf("kb: delta %s: implausible op count %d in %d payload bytes", what, n, len(p))
		}
		if n == 0 {
			return nil, nil
		}
		ops := make([][2]int32, n)
		for i := range ops {
			for j := 0; j < 2; j++ {
				v, err := vr.uvarint()
				if err != nil {
					return nil, fmt.Errorf("kb: delta %s op %d: %w", what, i, err)
				}
				if v >= cnt {
					return nil, fmt.Errorf("kb: delta %s op %d references name %d of %d", what, i, v, cnt)
				}
				ops[i][j] = int32(v)
			}
		}
		return ops, nil
	}
	if d.TripleDel, err = r3(dsecTripleDel, "tripleDel"); err != nil {
		return nil, err
	}
	if d.TripleAdd, err = r3(dsecTripleAdd, "tripleAdd"); err != nil {
		return nil, err
	}
	if d.TypeDel, err = r2(dsecTypeDel, "typeDel"); err != nil {
		return nil, err
	}
	if d.TypeAdd, err = r2(dsecTypeAdd, "typeAdd"); err != nil {
		return nil, err
	}
	if d.SubDel, err = r2(dsecSubDel, "subDel"); err != nil {
		return nil, err
	}
	if d.SubAdd, err = r2(dsecSubAdd, "subAdd"); err != nil {
		return nil, err
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Apply

// ErrDeltaBaseMismatch reports that a delta was built against content
// that differs from the graph it is being applied to. The live graph
// is untouched.
var ErrDeltaBaseMismatch = errors.New("kb: delta base mismatch")

// ApplyDelta builds a new graph with d's edits applied, in the flat,
// read-only layout a loaded snapshot has; g itself — possibly pinned
// by in-flight requests — is never mutated. An index the delta leaves
// alone is shared whole with g: the name storage when a snapshot-form
// base gains no node, the type and taxonomy tables and their frozen
// closures when no type or subclass assertion changes. An index the
// delta touches is copied whole — the base's arrays may be read-only
// mmap'd pages — list by list into a fresh arena, each touched list
// merged in canonical order, so chained deltas leave no dead entries
// behind. The result has a strictly larger generation.
//
// The base must match d.BaseFP (and triple count); a delta built
// against different content returns ErrDeltaBaseMismatch. Nodes whose
// every assertion is removed stay interned as orphans — they are
// unreachable from any index and do not perturb the fingerprint, so
// chained deltas keep applying.
func (g *Graph) ApplyDelta(d *Delta) (*Graph, error) {
	if len(d.Kinds) != len(d.Names) {
		return nil, fmt.Errorf("kb: malformed delta: %d kinds for %d names", len(d.Kinds), len(d.Names))
	}
	if d.BaseTriples != g.NumTriples() {
		return nil, fmt.Errorf("%w: delta expects a base with %d triples, live graph has %d",
			ErrDeltaBaseMismatch, d.BaseTriples, g.NumTriples())
	}
	if fp := g.Fingerprint(); fp != d.BaseFP {
		return nil, fmt.Errorf("%w: live graph content %016x, delta built against %016x",
			ErrDeltaBaseMismatch, fp, d.BaseFP)
	}

	// Resolve delta-local names against the base; misses become new
	// node IDs appended after the base's, and kind disagreements on
	// existing nodes become kind fixes.
	n0 := g.NumNodes()
	ids := make([]ID, len(d.Names))
	var newNames []string
	var newKinds []Kind
	type kindFix struct {
		id ID
		k  Kind
	}
	var kindFixes []kindFix
	next := ID(n0)
	for i, nm := range d.Names {
		if id := g.Lookup(nm); id != Invalid {
			ids[i] = id
			if g.kinds[id] != d.Kinds[i] {
				kindFixes = append(kindFixes, kindFix{id, d.Kinds[i]})
			}
		} else {
			ids[i] = next
			next++
			newNames = append(newNames, nm)
			newKinds = append(newKinds, d.Kinds[i])
		}
	}
	nTotal := int(next)

	// Resolve ops to base-ID space and validate them against the base:
	// removals must exist, additions must not.
	opName := func(i int32) string { return d.Names[i] }
	trDel := make([][3]ID, len(d.TripleDel))
	for i, t := range d.TripleDel {
		s, p, o := ids[t[0]], ids[t[1]], ids[t[2]]
		if int(s) >= n0 || int(p) >= n0 || int(o) >= n0 || !g.HasEdge(s, p, o) {
			return nil, fmt.Errorf("%w: delta removes triple (%s, %s, %s) the base does not assert",
				ErrDeltaBaseMismatch, opName(t[0]), opName(t[1]), opName(t[2]))
		}
		trDel[i] = [3]ID{s, p, o}
	}
	trAdd := make([][3]ID, len(d.TripleAdd))
	for i, t := range d.TripleAdd {
		s, p, o := ids[t[0]], ids[t[1]], ids[t[2]]
		if int(s) < n0 && int(p) < n0 && int(o) < n0 && g.HasEdge(s, p, o) {
			return nil, fmt.Errorf("%w: delta adds triple (%s, %s, %s) the base already asserts",
				ErrDeltaBaseMismatch, opName(t[0]), opName(t[1]), opName(t[2]))
		}
		trAdd[i] = [3]ID{s, p, o}
	}
	resolve2 := func(ops [][2]int32, del bool, direct func(ID) []ID, what string) ([][2]ID, error) {
		out := make([][2]ID, len(ops))
		for i, t := range ops {
			a, b := ids[t[0]], ids[t[1]]
			present := int(a) < n0 && int(b) < n0 && containsID(direct(a), b)
			if del && !present {
				return nil, fmt.Errorf("%w: delta removes %s (%s, %s) the base does not assert",
					ErrDeltaBaseMismatch, what, opName(t[0]), opName(t[1]))
			}
			if !del && present {
				return nil, fmt.Errorf("%w: delta adds %s (%s, %s) the base already asserts",
					ErrDeltaBaseMismatch, what, opName(t[0]), opName(t[1]))
			}
			out[i] = [2]ID{a, b}
		}
		return out, nil
	}
	tyDel, err := resolve2(d.TypeDel, true, g.directTypes, "type assertion")
	if err != nil {
		return nil, err
	}
	tyAdd, err := resolve2(d.TypeAdd, false, g.directTypes, "type assertion")
	if err != nil {
		return nil, err
	}
	sbDel, err := resolve2(d.SubDel, true, g.directSupers, "subclass edge")
	if err != nil {
		return nil, err
	}
	sbAdd, err := resolve2(d.SubAdd, false, g.directSupers, "subclass edge")
	if err != nil {
		return nil, err
	}
	if err := rejectDup3(trDel, "triple removal"); err != nil {
		return nil, err
	}
	if err := rejectDup3(trAdd, "triple addition"); err != nil {
		return nil, err
	}
	for _, l := range []struct {
		ops  [][2]ID
		what string
	}{{tyDel, "type removal"}, {tyAdd, "type addition"}, {sbDel, "subclass removal"}, {sbAdd, "subclass addition"}} {
		if err := rejectDup2(l.ops, l.what); err != nil {
			return nil, err
		}
	}

	ng := &Graph{
		tripleCount:  g.tripleCount - len(trDel) + len(trAdd),
		gen:          g.gen + int64(d.Ops()) + 1,
		literalClass: g.literalClass,
		mapped:       g.mapped,
	}

	// Names: a snapshot-form base's storage is shared whole when no node
	// is added; otherwise (and always for a text-parsed base, which has
	// none to share) every name is laid out flat.
	if len(newNames) == 0 && g.byName == nil {
		ng.nameBlob, ng.nameOffs, ng.nameTab = g.nameBlob, g.nameOffs, g.nameTab
	} else {
		ng.nameBlob, ng.nameOffs, ng.nameTab = flatNames(g, newNames)
	}
	if len(newNames) == 0 && len(kindFixes) == 0 {
		ng.kinds = g.kinds
	} else {
		kinds := make([]Kind, nTotal)
		copy(kinds, g.kinds)
		copy(kinds[n0:], newKinds)
		for _, f := range kindFixes {
			kinds[f.id] = f.k
		}
		ng.kinds = kinds
	}

	// The four triple indexes patch independently — in parallel, like
	// the snapshot decoder's per-section workers.
	outDel, inDel, spDel, poDel := triplePatches(trDel)
	outAdd, inAdd, spAdd, poAdd := triplePatches(trAdd)
	var wg sync.WaitGroup
	var errs [4]error
	wg.Add(4)
	go func() {
		defer wg.Done()
		ng.out.spans, ng.out.edges, errs[0] = patchSpans(g.out.spans, g.out.edges, nTotal, outDel, outAdd, cmpEdge)
	}()
	go func() {
		defer wg.Done()
		ng.in.spans, ng.in.edges, errs[1] = patchSpans(g.in.spans, g.in.edges, nTotal, inDel, inAdd, cmpEdge)
	}()
	go func() { defer wg.Done(); ng.sp, errs[2] = patchPairs(g.sp, spDel, spAdd) }()
	go func() { defer wg.Done(); ng.po, errs[3] = patchPairs(g.po, poDel, poAdd) }()
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}

	// Type and taxonomy tables: a snapshot-form base's are read as they
	// are, a text-parsed base's are laid out from its maps first.
	types, instOf, superOf, subOf := g.typesIdx, g.instOfIdx, g.superOfIdx, g.subOfIdx
	if g.byName != nil {
		types, instOf = idListsOf(n0, g.forEachTyped)
		superOf, subOf = idListsOf(n0, g.forEachSubclassed)
	}
	fwd := func(ops [][2]ID) []patch[ID, ID] {
		ps := make([]patch[ID, ID], len(ops))
		for i, o := range ops {
			ps[i] = patch[ID, ID]{o[0], o[1]}
		}
		return ps
	}
	inv := func(ops [][2]ID) []patch[ID, ID] {
		ps := make([]patch[ID, ID], len(ops))
		for i, o := range ops {
			ps[i] = patch[ID, ID]{o[1], o[0]}
		}
		return ps
	}
	for _, t := range []struct {
		dst      *idListIndex
		base     idListIndex
		del, add []patch[ID, ID]
	}{
		{&ng.typesIdx, types, fwd(tyDel), fwd(tyAdd)},
		{&ng.instOfIdx, instOf, inv(tyDel), inv(tyAdd)},
		{&ng.superOfIdx, superOf, fwd(sbDel), fwd(sbAdd)},
		{&ng.subOfIdx, subOf, inv(sbDel), inv(sbAdd)},
	} {
		if t.dst.spans, t.dst.ids, err = patchSpans(t.base.spans, t.base.ids, nTotal, t.del, t.add, cmp.Compare[ID]); err != nil {
			return nil, err
		}
	}
	if len(tyDel)+len(tyAdd)+len(sbDel)+len(sbAdd) == 0 && !g.closureDirty && g.instClosure.offs != nil {
		// ensureClosures always rebuilds into fresh arrays, so the
		// frozen base's closures are safe to share read-only. New nodes
		// lie past their offsets and read as untyped — exactly the
		// semantics of an untyped node.
		ng.instClosure, ng.typeClosure = g.instClosure, g.typeClosure
	} else {
		ng.closureDirty = true
	}

	preds := make(map[ID]struct{}, len(g.preds)+1)
	for p := range g.preds {
		preds[p] = struct{}{}
	}
	for _, t := range trAdd {
		preds[t[1]] = struct{}{}
	}
	ng.preds = preds

	// Verify the applied content's fingerprint incrementally against
	// the delta's promise. Kind fixes invalidate the term-by-term
	// update (a changed literal-ness alters every triple term naming
	// the node), so that rare case recomputes lazily instead.
	if len(kindFixes) == 0 {
		dnh := make([]uint64, len(d.Names))
		for i, nm := range d.Names {
			dnh[i] = nameHash(nm)
		}
		fp := d.BaseFP
		for _, t := range d.TripleDel {
			fp -= fpTerm(fpTagTriple, dnh[t[0]], dnh[t[1]], dnh[t[2]]+litBit(d.Kinds[t[2]]))
		}
		for _, t := range d.TripleAdd {
			fp += fpTerm(fpTagTriple, dnh[t[0]], dnh[t[1]], dnh[t[2]]+litBit(d.Kinds[t[2]]))
		}
		for _, t := range d.TypeDel {
			fp -= fpTerm(fpTagType, dnh[t[0]], dnh[t[1]], 0)
		}
		for _, t := range d.TypeAdd {
			fp += fpTerm(fpTagType, dnh[t[0]], dnh[t[1]], 0)
		}
		for _, t := range d.SubDel {
			fp -= fpTerm(fpTagSub, dnh[t[0]], dnh[t[1]], 0)
		}
		for _, t := range d.SubAdd {
			fp += fpTerm(fpTagSub, dnh[t[0]], dnh[t[1]], 0)
		}
		if fp != d.NewFP {
			return nil, fmt.Errorf("kb: delta apply fingerprint mismatch: applied content %016x, delta promises %016x", fp, d.NewFP)
		}
		ng.fp.Store(&fpMemo{gen: ng.gen, fp: fp})
	}
	return ng, nil
}

// flatNames lays out g's names followed by added as one blob, with
// offsets and a lookup table over all of them.
func flatNames(g *Graph, added []string) (string, []uint32, nameTable) {
	n0, n := g.NumNodes(), g.NumNodes()+len(added)
	name := func(i int) string {
		if i < n0 {
			return g.Name(ID(i))
		}
		return added[i-n0]
	}
	size := 0
	for i := 0; i < n; i++ {
		size += len(name(i))
	}
	var sb strings.Builder
	sb.Grow(size)
	offs := make([]uint32, n+1)
	tab := newNameTable(n)
	for i := 0; i < n; i++ {
		offs[i] = uint32(sb.Len())
		sb.WriteString(name(i))
		tab.insert(name(i), ID(i))
	}
	offs[n] = uint32(sb.Len())
	return sb.String(), offs, tab
}

// idListsOf lays out an ID -> []ID association and its inverse as
// span tables.
func idListsOf(numNodes int, forEach func(func(ID, []ID))) (fwd, inv idListIndex) {
	fwd.spans, fwd.ids, _ = canonIDList(numNodes, forEach)
	inv.spans, inv.ids, _ = invertIDList(numNodes, fwd.spans, fwd.ids)
	return fwd, inv
}

func rejectDup3(ops [][3]ID, what string) error {
	s := append([][3]ID(nil), ops...)
	slices.SortFunc(s, func(a, b [3]ID) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		if a[1] != b[1] {
			return int(a[1]) - int(b[1])
		}
		return int(a[2]) - int(b[2])
	})
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return fmt.Errorf("kb: malformed delta: duplicate %s", what)
		}
	}
	return nil
}

func rejectDup2(ops [][2]ID, what string) error {
	s := append([][2]ID(nil), ops...)
	slices.SortFunc(s, func(a, b [2]ID) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return fmt.Errorf("kb: malformed delta: duplicate %s", what)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Patch helpers

// patch is one value removed from or added to the list under key: a
// node ID in the dense span tables, a packed pair key in the pair
// tables.
type patch[K cmp.Ordered, V any] struct {
	key K
	val V
}

// triplePatches turns resolved triples into patches for the four
// triple indexes.
func triplePatches(ts [][3]ID) (out, in []patch[ID, Edge], sp, po []patch[uint64, ID]) {
	for _, t := range ts {
		s, p, o := t[0], t[1], t[2]
		out = append(out, patch[ID, Edge]{s, Edge{Pred: p, To: o}})
		in = append(in, patch[ID, Edge]{o, Edge{Pred: p, To: s}})
		sp = append(sp, patch[uint64, ID]{pairKey(s, p), o})
		po = append(po, patch[uint64, ID]{pairKey(p, o), s})
	}
	return out, in, sp, po
}

// sortPatches orders patches by key, then by value.
func sortPatches[K cmp.Ordered, V any](ps []patch[K, V], cmpV func(V, V) int) {
	slices.SortFunc(ps, func(a, b patch[K, V]) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmpV(a.val, b.val)
	})
}

// forEachGroup walks two key-sorted patch lists and calls fn once per
// touched key with that key's removals and additions.
func forEachGroup[K cmp.Ordered, V any](del, add []patch[K, V], fn func(k K, dels, adds []patch[K, V])) {
	di, ai := 0, 0
	for di < len(del) || ai < len(add) {
		var k K
		switch {
		case di >= len(del):
			k = add[ai].key
		case ai >= len(add) || del[di].key < add[ai].key:
			k = del[di].key
		default:
			k = add[ai].key
		}
		d0 := di
		for di < len(del) && del[di].key == k {
			di++
		}
		a0 := ai
		for ai < len(add) && add[ai].key == k {
			ai++
		}
		fn(k, del[d0:di], add[a0:ai])
	}
}

// cmpEdge orders edges canonically by (Pred, To) — the order the v2
// snapshot writer emits, kept by every rewritten list.
func cmpEdge(a, b Edge) int {
	if c := cmp.Compare(a.Pred, b.Pred); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// mergeList appends to dst the list base with adds merged in and dels
// removed, sorted by cmpV. base need not be sorted; dels must be sorted
// by cmpV, and each must be in base. k names the list in the error.
func mergeList[K cmp.Ordered, V any](dst, base []V, k K, dels, adds []patch[K, V], cmpV func(V, V) int) ([]V, error) {
	start := len(dst)
	dst = append(dst, base...)
	for _, a := range adds {
		dst = append(dst, a.val)
	}
	slices.SortFunc(dst[start:], cmpV)
	w, di := start, 0
	for _, v := range dst[start:] {
		if di < len(dels) {
			c := cmpV(dels[di].val, v)
			if c == 0 {
				di++
				continue
			}
			if c < 0 {
				break
			}
		}
		dst[w] = v
		w++
	}
	if di < len(dels) {
		return dst[:start], fmt.Errorf("kb: delta apply: removed value %v not present under key %v", dels[di].val, k)
	}
	return dst[:w], nil
}

// touchedList is one list a delta edits: its slot in a span table, its
// key, and the key's removals and additions.
type touchedList[K cmp.Ordered, V any] struct {
	slot       int
	key        K
	dels, adds []patch[K, V]
}

// rewriteArena lays out a fresh arena for spans, which point into base:
// first each touched list merged with its edits, then every other list
// as it is. spans is repointed in place, so the arena holds exactly the
// live entries.
func rewriteArena[K cmp.Ordered, V any](spans []pairSpan, base []V, touched []touchedList[K, V], cmpV func(V, V) int) ([]V, error) {
	size := 0
	for _, s := range spans {
		size += int(s.n)
	}
	for _, tl := range touched {
		size += len(tl.adds)
	}
	arena := make([]V, 0, size)
	done := make([]uint64, (len(spans)+63)/64)
	for _, tl := range touched {
		s := spans[tl.slot]
		start := len(arena)
		var err error
		if arena, err = mergeList(arena, base[s.off:s.off+s.n], tl.key, tl.dels, tl.adds, cmpV); err != nil {
			return nil, err
		}
		n := uint32(len(arena) - start)
		spans[tl.slot] = pairSpan{off: uint32(start), n: n, cap: n}
		done[tl.slot/64] |= 1 << (tl.slot % 64)
	}
	for i, s := range spans {
		if done[i/64]&(1<<(i%64)) == 0 {
			start := len(arena)
			arena = append(arena, base[s.off:s.off+s.n]...)
			spans[i] = pairSpan{off: uint32(start), n: s.n, cap: s.n}
		}
	}
	return arena, nil
}

// patchSpans applies del and add to a dense span table over nTotal
// keys — an edge index or an ID-list index. With no patches the table
// is returned as is, shared with the base. Otherwise both arrays are
// rewritten; an emptied list keeps a zero-length span.
func patchSpans[V any](spans []pairSpan, arena []V, nTotal int, del, add []patch[ID, V], cmpV func(V, V) int) ([]pairSpan, []V, error) {
	if len(del)+len(add) == 0 {
		return spans, arena, nil
	}
	sortPatches(del, cmpV)
	sortPatches(add, cmpV)
	var touched []touchedList[ID, V]
	forEachGroup(del, add, func(k ID, dels, adds []patch[ID, V]) {
		touched = append(touched, touchedList[ID, V]{int(k), k, dels, adds})
	})
	ns := make([]pairSpan, nTotal)
	copy(ns, spans)
	na, err := rewriteArena(ns, arena, touched, cmpV)
	return ns, na, err
}

// patchPairs applies del and add to a pair table. With no patches the
// table is returned as is, shared with the base. Otherwise its arrays
// are rewritten; an emptied key keeps its slot with a zero-length span
// and counts toward the 3/4 load until the table is next rehashed.
func patchPairs(t *pairTable, del, add []patch[uint64, ID]) (*pairTable, error) {
	if len(del)+len(add) == 0 {
		return t, nil
	}
	sortPatches(del, cmp.Compare[ID])
	sortPatches(add, cmp.Compare[ID])
	// Lay out the key set first: the base's slots — rehashed, without
	// the keys earlier deltas emptied, when new keys would pass the 3/4
	// load — plus a slot for each new key. Spans still point into the
	// base's arena.
	added := 0
	forEachGroup(del, add, func(k uint64, _, _ []patch[uint64, ID]) {
		if len(t.get(k)) == 0 {
			added++
		}
	})
	nt := &pairTable{keys: t.keys, spans: t.spans, used: t.used, shift: t.shift}
	if 4*(t.used+added) > 3*len(t.keys) {
		nt.rehash(added)
	} else {
		nt.keys, nt.spans = slices.Clone(t.keys), slices.Clone(t.spans)
	}
	var touched []touchedList[uint64, ID]
	forEachGroup(del, add, func(k uint64, dels, adds []patch[uint64, ID]) {
		i, ok := nt.find(k)
		if !ok {
			nt.keys[i] = k
			nt.used++
		}
		touched = append(touched, touchedList[uint64, ID]{i, k, dels, adds})
	})
	var err error
	nt.ids, err = rewriteArena(nt.spans, t.ids, touched, cmp.Compare[ID])
	return nt, err
}
