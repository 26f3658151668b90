package kb

// pairTable is a minimal open-addressing hash table from a packed
// (ID, ID) key to a list of IDs — the backing store of the
// subject–predicate and predicate–object indexes. The generic Go map
// was the single largest cost of loading a snapshot (one mapassign
// per distinct pair); this table replaces it with Fibonacci hashing
// over a power-of-two array and linear probing, which builds several
// times faster and looks up at least as fast on the hot match path.
//
// The table is deliberately pointer-free: values are {offset, length,
// capacity} spans into one table-owned []ID arena, so the garbage
// collector never scans or write-barriers it — on the machines this
// serves, GC traffic over a slice-of-slices value array was a
// measurable share of snapshot load time. Incremental appends
// (AddTripleID) relocate a full span to the arena tail with doubled
// capacity, amortizing to O(1) per added ID like a built-in slice.
//
// Invariants: the high word of a packed key is biased by +1, so no
// valid key is zero and keys[i] == 0 marks a free slot — probes scan
// only the flat uint64 key array. Load factor is kept at or below
// 3/4; Fibonacci hashing spreads the packed keys well enough that
// probe chains stay short, and the smaller arrays are less memory to
// zero on allocation.

const pairHashMult = 0x9E3779B97F4A7C15 // 2^64 / golden ratio

// pairKey packs two dense IDs into one 64-bit key, biased so the
// result is never zero.
func pairKey(a, b ID) uint64 {
	return (uint64(uint32(a))+1)<<32 | uint64(uint32(b))
}

// pairSpan locates one value list inside the table's arena. Dead
// ranges left behind by relocation are never reused; the arena only
// ever grows, so spans handed out by get stay valid forever.
type pairSpan struct {
	off, n, cap uint32
}

type pairTable struct {
	keys  []uint64
	spans []pairSpan
	ids   []ID // arena; spans index into it
	used  int  // occupied slots, including keys a delta emptied
	shift uint
}

// newPairTable returns a table presized for n entries and idCap arena
// IDs without growth.
func newPairTable(n, idCap int) *pairTable {
	size := 8
	for 3*size < 4*n {
		size *= 2
	}
	t := &pairTable{
		keys:  make([]uint64, size),
		spans: make([]pairSpan, size),
		ids:   make([]ID, 0, idCap),
	}
	t.shift = 64 - log2(size)
	return t
}

func log2(pow2 int) uint {
	var l uint
	for 1<<l < pow2 {
		l++
	}
	return l
}

func (t *pairTable) slot(k uint64) int {
	return int((k * pairHashMult) >> t.shift)
}

// get returns the value list stored under k: nil when k is absent,
// empty when a delta emptied it. The slice is a capped view into the
// arena: appends by callers cannot bleed into neighbouring spans.
func (t *pairTable) get(k uint64) []ID {
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			s := t.spans[i]
			return t.ids[s.off : s.off+s.n : s.off+s.n]
		case 0:
			return nil
		}
	}
}

// forEachKey calls fn once for every key with at least one value.
// Order is unspecified.
func (t *pairTable) forEachKey(fn func(k uint64)) {
	for i, k := range t.keys {
		if k != 0 && t.spans[i].n > 0 {
			fn(k)
		}
	}
}

// find returns the slot k occupies, or — when absent — the free slot a
// subsequent insert of k must claim. The caller must keep the table
// below full load before inserting into a free slot.
func (t *pairTable) find(k uint64) (slot int, ok bool) {
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// put stores v (which must be non-empty) under k, which must not be
// present yet — the snapshot decoder's bulk-build path.
func (t *pairTable) put(k uint64, v []ID) {
	if 4*(t.used+1) > 3*len(t.keys) {
		t.rehash(1)
	}
	mask := len(t.keys) - 1
	i := t.slot(k)
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i] = k
	off := uint32(len(t.ids))
	t.ids = append(t.ids, v...)
	t.spans[i] = pairSpan{off: off, n: uint32(len(v)), cap: uint32(len(v))}
	t.used++
}

// add appends v to the value list stored under k, creating the entry
// if absent.
func (t *pairTable) add(k uint64, v ID) {
	if 4*(t.used+1) > 3*len(t.keys) {
		t.rehash(1)
	}
	mask := len(t.keys) - 1
	i := t.slot(k)
	for {
		switch t.keys[i] {
		case 0:
			t.keys[i] = k
			t.spans[i] = pairSpan{off: uint32(len(t.ids)), n: 1, cap: 1}
			t.ids = append(t.ids, v)
			t.used++
			return
		case k:
			s := t.spans[i]
			if s.n < s.cap {
				t.ids[s.off+s.n] = v
				t.spans[i].n++
				return
			}
			// Relocate to the arena tail with doubled capacity; the
			// old range is dead but spans already handed out by get
			// keep reading the old values.
			off := uint32(len(t.ids))
			t.ids = append(t.ids, t.ids[s.off:s.off+s.n]...)
			t.ids = append(t.ids, v)
			for j := s.n + 1; j < 2*s.cap; j++ {
				t.ids = append(t.ids, 0)
			}
			t.spans[i] = pairSpan{off: off, n: s.n + 1, cap: 2 * s.cap}
			return
		}
		i = (i + 1) & mask
	}
}

// edgeIndex is the dense analogue of pairTable for the out/in edge
// lists: spans indexed directly by node ID (no hashing — node IDs are
// dense) into one pointer-free []Edge arena. The same relocation
// scheme amortizes incremental appends.
type edgeIndex struct {
	spans []pairSpan // indexed by node ID, grown with the name table
	edges []Edge     // arena; spans index into it
}

// addNode extends the span table for a newly interned node.
func (x *edgeIndex) addNode() {
	x.spans = append(x.spans, pairSpan{})
}

// view returns the edge list of key, or nil. The slice is a capped
// view into the arena.
func (x *edgeIndex) view(key ID) []Edge {
	if key < 0 || int(key) >= len(x.spans) {
		return nil
	}
	s := x.spans[key]
	if s.n == 0 {
		return nil
	}
	return x.edges[s.off : s.off+s.n : s.off+s.n]
}

// add appends e to key's edge list.
func (x *edgeIndex) add(key ID, e Edge) {
	s := x.spans[key]
	if s.n < s.cap {
		x.edges[s.off+s.n] = e
		x.spans[key].n++
		return
	}
	off := uint32(len(x.edges))
	x.edges = append(x.edges, x.edges[s.off:s.off+s.n]...)
	x.edges = append(x.edges, e)
	newCap := 2 * s.cap
	if newCap == 0 {
		newCap = 1
	}
	for j := s.n + 1; j < newCap; j++ {
		x.edges = append(x.edges, Edge{})
	}
	x.spans[key] = pairSpan{off: off, n: s.n + 1, cap: newCap}
}

// rehash moves every key with values into fresh slot arrays with room
// for extra more keys at the 3/4 load; keys a delta emptied are dropped.
// Spans keep pointing into the same arena.
func (t *pairTable) rehash(extra int) {
	live := 0
	for i, k := range t.keys {
		if k != 0 && t.spans[i].n > 0 {
			live++
		}
	}
	nt := newPairTable(live+extra, 0)
	for i, k := range t.keys {
		if k != 0 && t.spans[i].n > 0 {
			j, _ := nt.find(k)
			nt.keys[j], nt.spans[j] = k, t.spans[i]
		}
	}
	t.keys, t.spans, t.used, t.shift = nt.keys, nt.spans, live, nt.shift
}
