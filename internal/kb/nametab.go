package kb

import "strings"

// nameTable is a frozen graph's name index: a pointer-free
// open-addressing index from node name to ID whose slot array is
// stored verbatim in DKBS v2 snapshots, so an mmap'd graph resolves
// Lookup straight out of file pages without ever materializing a Go
// map. Names themselves are not duplicated — a slot holds only the
// 64-bit name hash and the node ID, and a probe that matches the hash
// confirms against the name bytes via the nameOffs table.
//
// Layout invariants mirror pairTable: power-of-two slot count,
// Fibonacci hashing, linear probing, load factor at or below 3/4.
// idPlus1 == 0 marks a free slot (node IDs are dense from 0, so every
// occupied slot stores id+1).

// nameSlot is one table slot. Its memory layout (16 bytes, no
// padding) is part of the DKBS v2 format.
type nameSlot struct {
	hash    uint64 // fnv-1a of the name
	idPlus1 uint32 // node ID + 1; 0 = free slot
	_       uint32 // reserved
}

type nameTable struct {
	slots []nameSlot
	shift uint
}

// nameHash is FNV-1a over the name bytes — stable across builds, part
// of the v2 format.
func nameHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// newNameTable returns an empty table presized for n names.
func newNameTable(n int) nameTable {
	size := 8
	for 3*size < 4*n {
		size *= 2
	}
	return nameTable{slots: make([]nameSlot, size), shift: 64 - log2(size)}
}

func (t *nameTable) slot(h uint64) int {
	return int((h * pairHashMult) >> t.shift)
}

// insert adds (name, id). The caller guarantees the name is not
// present and the table was sized for the final population (flatNames
// inserts each name exactly once, in ID order, which also makes slot
// placement deterministic).
func (t *nameTable) insert(name string, id ID) {
	h := nameHash(name)
	mask := len(t.slots) - 1
	i := t.slot(h)
	for t.slots[i].idPlus1 != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = nameSlot{hash: h, idPlus1: uint32(id) + 1}
}

// lookup resolves name against the blob/offsets name storage, or
// Invalid. Hash matches are confirmed against the actual name bytes,
// so colliding hashes cannot alias two names.
func (t *nameTable) lookup(blob string, offs []uint32, name string) ID {
	if len(t.slots) == 0 {
		return Invalid
	}
	h := nameHash(name)
	mask := len(t.slots) - 1
	for i := t.slot(h); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.idPlus1 == 0 {
			return Invalid
		}
		if s.hash == h {
			id := ID(s.idPlus1 - 1)
			if blob[offs[id]:offs[id+1]] == name {
				return id
			}
		}
	}
}

// flatNames lays out n names, name(0) to name(n-1), as one blob with
// offsets and a lookup table over all of them: the name storage of
// every frozen graph, and the three name sections of a DKBS snapshot.
func flatNames(n int, name func(ID) string) (string, []uint32, nameTable) {
	size := 0
	for i := 0; i < n; i++ {
		size += len(name(ID(i)))
	}
	var sb strings.Builder
	sb.Grow(size)
	offs := make([]uint32, n+1)
	tab := newNameTable(n)
	for i := 0; i < n; i++ {
		nm := name(ID(i))
		offs[i] = uint32(sb.Len())
		sb.WriteString(nm)
		tab.insert(nm, ID(i))
	}
	offs[n] = uint32(sb.Len())
	return sb.String(), offs, tab
}

// idListIndex is the frozen form of an ID -> []ID assertion map
// (types, instOf, superOf, subOf): a dense span table indexed by key
// into one shared ID arena, both pointer-free and therefore
// mmap-eligible. Keys out of range or without entries view nil,
// matching a map miss.
type idListIndex struct {
	spans []pairSpan
	ids   []ID
}

func (x *idListIndex) view(key ID) []ID {
	if key < 0 || int(key) >= len(x.spans) {
		return nil
	}
	s := x.spans[key]
	if s.n == 0 {
		return nil
	}
	return x.ids[s.off : s.off+s.n : s.off+s.n]
}

// forEach calls fn once per key with a non-empty list, in key order.
func (x *idListIndex) forEach(fn func(ID, []ID)) {
	for i := range x.spans {
		if vs := x.view(ID(i)); len(vs) > 0 {
			fn(ID(i), vs)
		}
	}
}

// idListsOf lays out a built graph's ID -> []ID assertion map and its
// inverse as span tables, as the snapshot writer lays out the pair.
func idListsOf(numNodes int, m map[ID][]ID) (fwd, inv idListIndex) {
	fwd.spans, fwd.ids, _ = canonIDList(numNodes, func(fn func(ID, []ID)) {
		for k, vs := range m {
			fn(k, vs)
		}
	})
	inv.spans, inv.ids, _ = invertIDList(numNodes, fwd.spans, fwd.ids)
	return fwd, inv
}
