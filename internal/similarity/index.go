package similarity

import (
	"fmt"
	"sync/atomic"
)

// StringIndex answers "which indexed strings match q under spec?"
// without scanning all entries, implementing the signature-based
// inverted index of the paper's §IV-B(2). For edit distance it uses
// the PASS-JOIN partition scheme (ref [21]): every indexed string is
// split into maxK+1 segments; at most maxK edits cannot touch every
// segment, so any string within distance k ≤ maxK of q must share a
// segment with a substring of q at a position shifted by at most k.
// For Jaccard/cosine it uses a token inverted index, and for equality
// a hash table.
//
// Payloads are opaque int32 values (the caller typically stores
// kb.ID). A payload may be added under several strings; one string
// may carry several payloads.
type StringIndex struct {
	maxK int

	// hits counts Lookup calls that produced at least one candidate;
	// misses counts the rest — the same shape as the catalog's
	// candidate-cache stats (rules.Catalog.CacheStats), so both layers
	// export through one registry. Atomics keep frozen-index lookups
	// safe for concurrent use.
	hits, misses atomic.Int64

	strs     []string
	payloads []int32

	exact  map[string][]int32 // value -> entry indexes
	segs   map[segKey][]int32 // (len, segIdx, segment) -> entry indexes
	short  []int32            // entries too short to segment, scanned with a length filter
	tokens map[string][]int32 // token -> entry indexes
	empty  []int32            // token-less entries (for Jaccard/cosine fallback)
}

type segKey struct {
	strLen int
	segIdx int
	seg    string
}

// NewStringIndex creates an index supporting edit-distance lookups
// with thresholds up to maxK (and equality / Jaccard / cosine lookups
// regardless of maxK). maxK must be non-negative.
func NewStringIndex(maxK int) *StringIndex {
	if maxK < 0 {
		panic(fmt.Sprintf("similarity: negative maxK %d", maxK))
	}
	return &StringIndex{
		maxK:   maxK,
		exact:  make(map[string][]int32),
		segs:   make(map[segKey][]int32),
		tokens: make(map[string][]int32),
	}
}

// Len returns the number of (string, payload) entries.
func (ix *StringIndex) Len() int { return len(ix.strs) }

// Add indexes s with the given payload.
func (ix *StringIndex) Add(s string, payload int32) {
	entry := int32(len(ix.strs))
	ix.strs = append(ix.strs, s)
	ix.payloads = append(ix.payloads, payload)

	ix.exact[s] = append(ix.exact[s], entry)

	if len(s) <= ix.maxK {
		// Too short for the partition scheme (some segment would be
		// empty and match everything); keep in a linear bucket.
		ix.short = append(ix.short, entry)
	} else {
		for i, seg := range segments(s, ix.maxK+1) {
			ix.segs[segKey{len(s), i, seg}] = append(ix.segs[segKey{len(s), i, seg}], entry)
		}
	}

	toks := Tokenize(s)
	if len(toks) == 0 {
		ix.empty = append(ix.empty, entry)
		return
	}
	seen := make(map[string]bool, len(toks))
	for _, t := range toks {
		if seen[t] {
			continue
		}
		seen[t] = true
		ix.tokens[t] = append(ix.tokens[t], entry)
	}
}

// segments splits s into n contiguous segments whose lengths differ by
// at most one, shorter segments first. It returns the segment strings
// in order; segStarts gives their offsets.
func segments(s string, n int) []string {
	out := make([]string, n)
	base := len(s) / n
	rem := len(s) % n
	pos := 0
	for i := 0; i < n; i++ {
		l := base
		if i >= n-rem {
			l++
		}
		out[i] = s[pos : pos+l]
		pos += l
	}
	return out
}

// segmentStarts returns the start offset and length of each of the n
// segments of a string of length strLen, matching segments().
func segmentStarts(strLen, n int) [][2]int {
	out := make([][2]int, n)
	base := strLen / n
	rem := strLen % n
	pos := 0
	for i := 0; i < n; i++ {
		l := base
		if i >= n-rem {
			l++
		}
		out[i] = [2]int{pos, l}
		pos += l
	}
	return out
}

// LookupEq returns the payloads of entries exactly equal to q.
func (ix *StringIndex) LookupEq(q string) []int32 {
	return ix.collect(ix.exact[q], nil)
}

// LookupED returns the payloads of entries within edit distance k of
// q, k ≤ MaxK. Results are verified (no false positives) and
// duplicate payloads are removed.
func (ix *StringIndex) LookupED(q string, k int) []int32 {
	if k > ix.maxK {
		panic(fmt.Sprintf("similarity: LookupED threshold %d exceeds index maxK %d", k, ix.maxK))
	}
	if k == 0 {
		return ix.LookupEq(q)
	}
	// The dedup map is allocated lazily: most queries over selective
	// signatures touch zero or one posting list entry.
	var seen map[int32]bool
	var cands []int32
	add := func(entries []int32) {
		for _, e := range entries {
			if seen == nil {
				seen = make(map[int32]bool)
			}
			if !seen[e] {
				seen[e] = true
				cands = append(cands, e)
			}
		}
	}
	// Short entries: length filter then verify.
	for _, e := range ix.short {
		if abs(len(ix.strs[e])-len(q)) <= k {
			if seen == nil {
				seen = make(map[int32]bool)
			}
			if !seen[e] {
				seen[e] = true
				cands = append(cands, e)
			}
		}
	}
	// Segment probes for every plausible indexed length.
	n := ix.maxK + 1
	for l := len(q) - k; l <= len(q)+k; l++ {
		if l <= ix.maxK {
			continue // covered by the short bucket
		}
		for i, se := range segmentStarts(l, n) {
			start, slen := se[0], se[1]
			lo := start - k
			if lo < 0 {
				lo = 0
			}
			hi := start + k
			if hi > len(q)-slen {
				hi = len(q) - slen
			}
			for st := lo; st <= hi; st++ {
				add(ix.segs[segKey{l, i, q[st : st+slen]}])
			}
		}
	}
	var verified []int32
	for _, e := range cands {
		if EDWithin(ix.strs[e], q, k) {
			verified = append(verified, e)
		}
	}
	return ix.collect(verified, nil)
}

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
	seen := make(map[int32]bool)
	var verified []int32
	consider := func(e int32) {
		if seen[e] {
			return
		}
		seen[e] = true
		if accept(ix.strs[e]) {
			verified = append(verified, e)
		}
	}
	for _, t := range Tokenize(q) {
		for _, e := range ix.tokens[t] {
			consider(e)
		}
	}
	for _, e := range ix.empty {
		consider(e)
	}
	return ix.collect(verified, nil)
}

// Lookup dispatches on the spec and tallies hit/miss accounting.
func (ix *StringIndex) Lookup(spec Spec, q string) []int32 {
	fireHook(q)
	var out []int32
	switch spec.Op {
	case OpEq:
		out = ix.LookupEq(q)
	case OpED:
		out = ix.LookupED(q, spec.K)
	case OpJaccard:
		out = ix.LookupJaccard(q, spec.Tau)
	case OpCosine:
		out = ix.LookupCosine(q, spec.Tau)
	default:
		return nil
	}
	if len(out) > 0 {
		ix.hits.Add(1)
	} else {
		ix.misses.Add(1)
	}
	return out
}

// Stats reports how many Lookup calls found at least one candidate
// (hits) or none (misses), and the number of indexed entries. It
// mirrors rules.Catalog.CacheStats so the signature indexes and the
// candidate cache are observable through the same telemetry registry.
func (ix *StringIndex) Stats() (hits, misses int64, size int) {
	return ix.hits.Load(), ix.misses.Load(), ix.Len()
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
