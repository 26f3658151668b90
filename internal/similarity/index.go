package similarity

import (
	"fmt"
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// StringIndex answers "which indexed strings match q under spec?"
// without scanning all entries, implementing the signature-based
// inverted index of the paper's §IV-B(2). For edit distance it uses
// PASS-JOIN (ref [21]): every indexed string is split into maxK+1
// segments; at most k ≤ maxK edits leave one of the first k+1
// untouched, so any string within distance k of q shares such a
// segment with a substring of q, and LookupED probes only the
// substrings PASS-JOIN's multi-match-aware selection allows, then
// checks each candidate with a bit-parallel edit-distance kernel. For
// Jaccard/cosine it uses a token inverted index, and for equality the
// exact value.
//
// All three signature kinds live in one flat, pointer-free table in
// the style of kb's pairTable: open addressing over 64-bit key hashes
// (Fibonacci hashing, linear probing, load at most 3/4, 0 marks a free
// slot) whose values are {offset, length, capacity} spans into one
// int32 arena of entry indexes. A key is the exact value, a PASS-JOIN
// segment together with its string length and position, or a
// lower-cased token. Every posting list is in ascending entry order;
// LookupEq and LookupED return payloads in entry order, the token
// lookups in the order their probes first reach each entry.
// Because keys are hashes, a collision can only add candidates: every
// lookup verifies its candidates against the strings themselves.
//
// Payloads are opaque int32 values (the caller typically stores
// kb.ID). A payload may be added under several strings; one string
// may carry several payloads.
//
// Lookups never write to the index, so once built it serves any number
// of concurrent readers: kb.Graph.NameIndex builds one per KB class and
// shares it with every catalog reading the graph. The index keeps no
// lookup counts; each rules.Catalog counts its own.
type StringIndex struct {
	maxK int

	strs     []string
	payloads []int32

	keys  []uint64 // key hash per slot; 0 = free
	spans []span   // posting list per slot, into arena
	arena []int32  // entry indexes
	used  int
	shift uint

	short []int32 // entries too short to segment, scanned with a length filter
	empty []int32 // token-less entries (for Jaccard/cosine fallback)
}

// span locates one posting list in the arena. Lists appended past
// their capacity move to the arena tail with doubled capacity; the
// dead range they leave is never reused.
type span struct {
	off, n, cap uint32
}

// NewStringIndex creates an empty index supporting edit-distance
// lookups with thresholds up to maxK (and equality / Jaccard / cosine
// lookups regardless of maxK). maxK must be non-negative.
func NewStringIndex(maxK int) *StringIndex {
	if maxK < 0 {
		panic(fmt.Sprintf("similarity: negative maxK %d", maxK))
	}
	ix := &StringIndex{maxK: maxK}
	ix.initTable(0)
	return ix
}

// BuildStringIndex indexes strs[i] with payload payloads[i], in that
// order, and returns the same index as adding each pair in turn to
// NewStringIndex(maxK). It takes ownership of both slices. The build
// hashes every key once, sizes the table for the worst case so no slot
// ever moves, and lays each posting list out exactly once: a handful
// of allocations per index, none per entry.
func BuildStringIndex(maxK int, strs []string, payloads []int32) *StringIndex {
	if len(strs) != len(payloads) {
		panic(fmt.Sprintf("similarity: %d strings but %d payloads", len(strs), len(payloads)))
	}
	ix := NewStringIndex(maxK)
	ix.strs, ix.payloads = strs, payloads

	// Pass 1: every entry's key hashes, back to back; ends[e] is where
	// entry e's run stops.
	hs := make([]uint64, 0, len(strs)*(maxK+4))
	ends := make([]int32, len(strs))
	for e, s := range strs {
		var tokens bool
		hs, tokens = ix.entryKeys(hs, s)
		ix.classify(int32(e), s, tokens)
		ends[e] = int32(len(hs))
	}

	// Pass 2: claim a slot per distinct key and count its postings;
	// hs[j] becomes key j's slot.
	ix.initTable(len(hs))
	for j, h := range hs {
		i, ok := ix.find(h)
		if !ok {
			ix.keys[i] = h
			ix.used++
		}
		ix.spans[i].n++
		hs[j] = uint64(i)
	}

	// Pass 3: lay the lists out back to back, then fill them in entry
	// order so each is ascending.
	var off uint32
	for i := range ix.spans {
		n := ix.spans[i].n
		ix.spans[i] = span{off: off, cap: n}
		off += n
	}
	ix.arena = make([]int32, off)
	var e int32
	for j, slot := range hs {
		for int32(j) >= ends[e] {
			e++
		}
		sp := &ix.spans[slot]
		ix.arena[sp.off+sp.n] = e
		sp.n++
	}
	return ix
}

// initTable allocates an empty slot array for n keys.
func (ix *StringIndex) initTable(n int) {
	size := 8
	for 3*size < 4*n {
		size *= 2
	}
	ix.keys = make([]uint64, size)
	ix.spans = make([]span, size)
	ix.shift = 64
	for 1<<(64-ix.shift) < size {
		ix.shift--
	}
	ix.used = 0
}

// Len returns the number of (string, payload) entries.
func (ix *StringIndex) Len() int { return len(ix.strs) }

// Add indexes s with the given payload.
func (ix *StringIndex) Add(s string, payload int32) {
	e := int32(len(ix.strs))
	ix.strs = append(ix.strs, s)
	ix.payloads = append(ix.payloads, payload)
	var buf [16]uint64
	hs, tokens := ix.entryKeys(buf[:0], s)
	ix.classify(e, s, tokens)
	for _, h := range hs {
		ix.add(h, e)
	}
}

// classify files entry e in the short and token-less lists.
func (ix *StringIndex) classify(e int32, s string, tokens bool) {
	if len(s) <= ix.maxK {
		// Too short for the partition scheme (some segment would be
		// empty and match everything); keep in a linear bucket.
		ix.short = append(ix.short, e)
	}
	if !tokens {
		ix.empty = append(ix.empty, e)
	}
}

// entryKeys appends the keys s is indexed under to hs: its exact
// value, its maxK+1 PASS-JOIN segments when it is long enough, and
// each distinct token. It reports whether s has any token.
func (ix *StringIndex) entryKeys(hs []uint64, s string) ([]uint64, bool) {
	hs = append(hs, keyHash(tagExact, s))
	if n := ix.maxK + 1; len(s) > ix.maxK {
		for i := 0; i < n; i++ {
			start, l := segment(len(s), n, i)
			hs = append(hs, keyHash(segTag(len(s), i), s[start:start+l]))
		}
	}
	first := len(hs)
	forEachToken(s, func(h uint64) {
		for _, x := range hs[first:] {
			if x == h {
				return
			}
		}
		hs = append(hs, h)
	})
	return hs, len(hs) > first
}

// Key tags keep the three signature kinds apart in the one table.
const (
	tagExact = 1
	tagToken = 2
	tagSeg   = 3 // | segment index << 8 | string length << 32
)

func segTag(strLen, idx int) uint64 {
	return tagSeg | uint64(idx)<<8 | uint64(strLen)<<32
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// hashMult spreads key hashes over the slots (2^64 / golden ratio).
	hashMult = 0x9E3779B97F4A7C15
)

// keyHash is FNV-1a over s, started from a state that folds in the
// tag, so equal bytes under different tags hash apart. It never
// returns 0, which marks a free slot.
func keyHash(tag uint64, s string) uint64 {
	h := keySeed(tag)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return nonZero(h)
}

func keySeed(tag uint64) uint64 { return (fnvOffset ^ tag) * fnvPrime }

func nonZero(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// forEachToken calls fn with the key hash of each token of s, in
// order and with repeats: the tokens Tokenize returns, hashed as
// keyHash(tagToken, token) would hash them, without allocating.
func forEachToken(s string, fn func(h uint64)) {
	var h uint64
	in := false
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if 'a' <= c && c <= 'z' || '0' <= c && c <= '9' {
				if !in {
					h, in = keySeed(tagToken), true
				}
				h = (h ^ uint64(c)) * fnvPrime
				continue
			}
		} else {
			r, w := utf8.DecodeRuneInString(s[i:])
			i += w
			// Tokenize lower-cases first (invalid bytes become
			// U+FFFD) and then splits on the lowered runes.
			if r = unicode.ToLower(r); unicode.IsLetter(r) || unicode.IsDigit(r) {
				if !in {
					h, in = keySeed(tagToken), true
				}
				var buf [utf8.UTFMax]byte
				for _, b := range buf[:utf8.EncodeRune(buf[:], r)] {
					h = (h ^ uint64(b)) * fnvPrime
				}
				continue
			}
		}
		if in {
			fn(nonZero(h))
			in = false
		}
	}
	if in {
		fn(nonZero(h))
	}
}

// segment returns the start and length of segment i of the n segments
// PASS-JOIN cuts a string of length strLen into: contiguous, lengths
// differing by at most one, shorter segments first.
func segment(strLen, n, i int) (start, length int) {
	base, long := strLen/n, n-strLen%n // segments from index long on are one longer
	start = i * base
	if i > long {
		start += i - long
	}
	if i >= long {
		base++
	}
	return start, base
}

func (ix *StringIndex) slot(h uint64) int {
	return int((h * hashMult) >> ix.shift)
}

// find probes for h and returns its slot, or the free slot an insert
// of h must claim.
func (ix *StringIndex) find(h uint64) (int, bool) {
	mask := len(ix.keys) - 1
	for i := ix.slot(h); ; i = (i + 1) & mask {
		switch ix.keys[i] {
		case h:
			return i, true
		case 0:
			return i, false
		}
	}
}

// postings returns the entries filed under key h (a capped view into
// the arena), or nil.
func (ix *StringIndex) postings(h uint64) []int32 {
	i, ok := ix.find(h)
	if !ok {
		return nil
	}
	s := ix.spans[i]
	return ix.arena[s.off : s.off+s.n : s.off+s.n]
}

// add appends entry e to the posting list of key h, creating it if
// absent.
func (ix *StringIndex) add(h uint64, e int32) {
	if 4*(ix.used+1) > 3*len(ix.keys) {
		ix.grow()
	}
	i, ok := ix.find(h)
	if !ok {
		ix.keys[i] = h
		ix.spans[i] = span{off: uint32(len(ix.arena)), n: 1, cap: 1}
		ix.arena = append(ix.arena, e)
		ix.used++
		return
	}
	s := ix.spans[i]
	if s.n < s.cap {
		ix.arena[s.off+s.n] = e
		ix.spans[i].n++
		return
	}
	off := uint32(len(ix.arena))
	ix.arena = append(ix.arena, ix.arena[s.off:s.off+s.n]...)
	ix.arena = append(ix.arena, e)
	ix.arena = append(ix.arena, make([]int32, s.n-1)...)
	ix.spans[i] = span{off: off, n: s.n + 1, cap: 2 * s.n}
}

func (ix *StringIndex) grow() {
	keys, spans := ix.keys, ix.spans
	ix.initTable(len(keys)) // 4/3 of a full table's slots rounds up to twice as many
	for j, h := range keys {
		if h != 0 {
			i, _ := ix.find(h)
			ix.keys[i] = h
			ix.spans[i] = spans[j]
			ix.used++
		}
	}
}

// LookupEq returns the payloads of entries exactly equal to q.
func (ix *StringIndex) LookupEq(q string) []int32 {
	ents := ix.postings(keyHash(tagExact, q))
	for i, e := range ents {
		if ix.strs[e] != q {
			// A hash collision: keep only the true matches.
			kept := append([]int32(nil), ents[:i]...)
			for _, e := range ents[i+1:] {
				if ix.strs[e] == q {
					kept = append(kept, e)
				}
			}
			ents = kept
			break
		}
	}
	return ix.collect(ents, nil)
}

// LookupED returns the payloads of entries within edit distance k of
// q, k ≤ MaxK, in entry order. Results are verified (no false
// positives) and duplicate payloads are removed.
//
// Probes follow PASS-JOIN's multi-match-aware selection. Take an entry
// of length l cut into maxK+1 segments and let Δ = |q| − l. If
// ED(entry, q) ≤ k, some segment s ≤ k appears in q at offset
// start_s + δ with |δ| ≤ s and |Δ − δ| ≤ k − s: assign each edit of an
// optimal alignment to a segment and take the first s whose running
// edit count up to and including s is at most s. That segment has no
// edit, s edits lie to its left and at most k − s to its right, and
// such an s ≤ k exists because the count at segment k is at most k.
// So a lookup probes only segments 0..k at the shifts both bounds
// allow: for k = 2 at most 5 probes per length and 19 per lookup,
// against 20 and 79 for every segment at every shift within ±k.
//
// The probes mark their postings in a bitset over the index's entries
// (on the stack up to edStackEntries entries), read back word by word,
// which is entry order, so each candidate is checked once, in entry
// order, with no sort, against q's bit-parallel pattern table, built
// once per lookup.
func (ix *StringIndex) LookupED(q string, k int) []int32 {
	if k > ix.maxK {
		panic(fmt.Sprintf("similarity: LookupED threshold %d exceeds index maxK %d", k, ix.maxK))
	}
	if k == 0 {
		return ix.LookupEq(q)
	}
	var stack [edStackEntries / 64]uint64
	seen := stack[:]
	if len(ix.strs) > edStackEntries {
		seen = make([]uint64, (len(ix.strs)+63)/64)
	}
	// [first, last] bounds the marked words.
	first, last := len(seen), -1
	// Short entries: length filter then verify.
	for _, e := range ix.short {
		if abs(len(ix.strs[e])-len(q)) <= k {
			w := int(e >> 6)
			seen[w] |= 1 << (e & 63)
			first, last = min(first, w), max(last, w)
		}
	}
	n := ix.maxK + 1
	for l := max(len(q)-k, n); l <= len(q)+k; l++ { // shorter lengths sit in the short bucket
		delta := len(q) - l
		for s := 0; s <= k; s++ {
			start, slen := segment(l, n, s)
			lo := max(start-s, start+delta-(k-s), 0)
			hi := min(start+s, start+delta+(k-s), len(q)-slen)
			for st := lo; st <= hi; st++ {
				for _, e := range ix.postings(keyHash(segTag(l, s), q[st:st+slen])) {
					w := int(e >> 6)
					seen[w] |= 1 << (e & 63)
					first, last = min(first, w), max(last, w)
				}
			}
		}
	}

	var p edPattern
	kernel := len(q) > 0 && len(q) <= 64
	if kernel {
		p.init(q)
	}
	var buf [64]int32
	verified := buf[:0]
	for w := first; w <= last; w++ {
		for x := seen[w]; x != 0; x &= x - 1 {
			e := int32(w<<6 + bits.TrailingZeros64(x))
			if kernel && p.within(ix.strs[e], k) || !kernel && EDWithin(ix.strs[e], q, k) {
				verified = append(verified, e)
			}
		}
	}
	return ix.collect(verified, nil)
}

// edStackEntries is the largest index whose LookupED candidate bitset
// lives on the stack (1 KiB): above the largest class extent a shipped
// rule set indexes, Nobel-4000's 6,617 literals.
const edStackEntries = 8192

// LookupJaccard returns the payloads of entries with Jaccard(entry, q)
// >= tau.
func (ix *StringIndex) LookupJaccard(q string, tau float64) []int32 {
	return ix.lookupToken(q, func(s string) bool { return Jaccard(s, q) >= tau })
}

// LookupCosine returns the payloads of entries with Cosine(entry, q)
// >= tau.
func (ix *StringIndex) LookupCosine(q string, tau float64) []int32 {
	return ix.lookupToken(q, func(s string) bool { return Cosine(s, q) >= tau })
}

func (ix *StringIndex) lookupToken(q string, accept func(string) bool) []int32 {
	c := candSet{n: len(ix.strs)}
	var verified []int32
	consider := func(e int32) {
		if c.add(e) && accept(ix.strs[e]) {
			verified = append(verified, e)
		}
	}
	forEachToken(q, func(h uint64) {
		for _, e := range ix.postings(h) {
			consider(e)
		}
	})
	for _, e := range ix.empty {
		consider(e)
	}
	return ix.collect(verified, nil)
}

// candSet collects entry indexes in first-seen order, once each. Small
// sets dedup by scanning the list; past 16 members a bitset over the
// index's n entries takes over.
type candSet struct {
	list []int32
	bits []uint64
	n    int
}

// add appends e unless already present and reports whether it did.
func (c *candSet) add(e int32) bool {
	if c.bits == nil {
		for _, x := range c.list {
			if x == e {
				return false
			}
		}
		c.list = append(c.list, e)
		if len(c.list) > 16 {
			c.bits = make([]uint64, (c.n+63)/64)
			for _, x := range c.list {
				c.bits[x>>6] |= 1 << (x & 63)
			}
		}
		return true
	}
	if c.bits[e>>6]&(1<<(e&63)) != 0 {
		return false
	}
	c.bits[e>>6] |= 1 << (e & 63)
	c.list = append(c.list, e)
	return true
}

// Lookup dispatches on the spec.
func (ix *StringIndex) Lookup(spec Spec, q string) []int32 {
	Observe(q)
	switch spec.Op {
	case OpEq:
		return ix.LookupEq(q)
	case OpED:
		return ix.LookupED(q, spec.K)
	case OpJaccard:
		return ix.LookupJaccard(q, spec.Tau)
	case OpCosine:
		return ix.LookupCosine(q, spec.Tau)
	}
	return nil
}

// collect maps entry indexes to their payloads, deduplicating
// payloads (the same payload may have been indexed under multiple
// strings). Small result sets — the overwhelmingly common case for
// selective lookups — dedup in place without allocating a map.
func (ix *StringIndex) collect(entries []int32, buf []int32) []int32 {
	switch len(entries) {
	case 0:
		return nil
	case 1:
		return append(buf, ix.payloads[entries[0]])
	}
	if len(entries) <= 16 {
		out := buf
		for _, e := range entries {
			p := ix.payloads[e]
			dup := false
			for _, q := range out {
				if q == p {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, p)
			}
		}
		return out
	}
	seen := make(map[int32]bool, len(entries))
	out := buf
	for _, e := range entries {
		p := ix.payloads[e]
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
