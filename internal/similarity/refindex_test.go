package similarity

import "fmt"

// refIndex is the map-based signature index that StringIndex's flat
// layout replaced, kept as the reference implementation the flat index
// must agree with exactly: the same payloads in the same order for
// every lookup. It keeps the original's exact and token maps, its
// token-less list and its token probe order. Edit-distance lookups
// scan every entry in order and check it with the plain DP ED, so the
// index's probes, its pattern kernel and its entry-order results are
// all checked against an answer that uses none of them.
type refIndex struct {
	maxK int

	strs     []string
	payloads []int32

	exact  map[string][]int32 // value -> entry indexes
	tokens map[string][]int32 // token -> entry indexes
	empty  []int32            // token-less entries (for Jaccard/cosine fallback)
}

func newRefIndex(maxK int) *refIndex {
	if maxK < 0 {
		panic(fmt.Sprintf("similarity: negative maxK %d", maxK))
	}
	return &refIndex{
		maxK:   maxK,
		exact:  make(map[string][]int32),
		tokens: make(map[string][]int32),
	}
}

func (ix *refIndex) Add(s string, payload int32) {
	entry := int32(len(ix.strs))
	ix.strs = append(ix.strs, s)
	ix.payloads = append(ix.payloads, payload)

	ix.exact[s] = append(ix.exact[s], entry)

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
// at most one, shorter segments first.
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

func (ix *refIndex) LookupEq(q string) []int32 {
	return ix.collect(ix.exact[q])
}

func (ix *refIndex) LookupED(q string, k int) []int32 {
	if k > ix.maxK {
		panic(fmt.Sprintf("similarity: LookupED threshold %d exceeds index maxK %d", k, ix.maxK))
	}
	var hits []int32
	for e, s := range ix.strs {
		if ED(s, q) <= k {
			hits = append(hits, int32(e))
		}
	}
	return ix.collect(hits)
}

func (ix *refIndex) LookupJaccard(q string, tau float64) []int32 {
	return ix.lookupToken(q, func(s string) bool { return Jaccard(s, q) >= tau })
}

func (ix *refIndex) LookupCosine(q string, tau float64) []int32 {
	return ix.lookupToken(q, func(s string) bool { return Cosine(s, q) >= tau })
}

func (ix *refIndex) lookupToken(q string, accept func(string) bool) []int32 {
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
	return ix.collect(verified)
}

func (ix *refIndex) Lookup(spec Spec, q string) []int32 {
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

// collect maps entry indexes to their payloads, keeping the first
// occurrence of each payload.
func (ix *refIndex) collect(entries []int32) []int32 {
	var out []int32
	seen := make(map[int32]bool, len(entries))
	for _, e := range entries {
		p := ix.payloads[e]
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
