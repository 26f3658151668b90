// Package similarity provides the matching operations that detective
// rules attach to their nodes (paper §II-B, "sim(u)"): string
// equality, edit distance with a threshold, and token-based Jaccard /
// cosine similarity. It also implements the signature-based inverted
// index of §IV-B(2) (after PASS-JOIN, ref [21]) so that similarity
// matching against the instance set of a KB class does not enumerate
// every instance.
package similarity

import (
	"math/bits"
	"strings"
	"unicode"
)

// ED computes the Levenshtein edit distance between a and b
// (insertions, deletions, substitutions, unit cost), operating on
// bytes, which is exact for the ASCII data used throughout the
// reproduction.
func ED(a, b string) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	if la < lb {
		a, b = b, a
		la, lb = lb, la
	}
	prev := make([]int, lb+1)
	curr := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		curr[0] = i
		ca := a[i-1]
		for j := 1; j <= lb; j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if d := prev[j] + 1; d < m {
				m = d
			}
			if d := curr[j-1] + 1; d < m {
				m = d
			}
			curr[j] = m
		}
		prev, curr = curr, prev
	}
	return prev[lb]
}

// EDWithin reports whether ED(a, b) <= k. After a length filter it
// computes the distance with the bit-parallel kernel (Myers, J. ACM
// 1999, in Hyyrö's global-distance form), which costs a handful of
// word operations per byte of the longer string when the shorter one
// has 1–64 bytes; only longer pairs fall back to a banded dynamic
// program.
func EDWithin(a, b string, k int) bool {
	if k < 0 {
		return false
	}
	la, lb := len(a), len(b)
	if la-lb > k || lb-la > k {
		return false
	}
	if a == b {
		return true
	}
	if k == 0 {
		return false
	}
	if la < lb {
		a, b = b, a
		la, lb = lb, la
	}
	if lb == 0 {
		return true // ED = la, within k by the length filter
	}
	if lb <= 64 {
		var p edPattern
		p.init(b)
		return p.within(a, k)
	}
	return edBanded(a, b, k)
}

// edPattern is the bit-parallel kernel's table for a pattern of 1–64
// bytes: bit i of peq[c] is set when byte i of the pattern is c. It
// is 2 KiB, built once per pattern on the caller's stack.
type edPattern struct {
	peq [256]uint64
	m   int
}

func (p *edPattern) init(pat string) {
	for i := 0; i < len(pat); i++ {
		p.peq[pat[i]] |= 1 << i
	}
	p.m = len(pat)
}

// within reports whether ED(pattern, t) <= k. The DP column over the
// pattern lives in two bit vectors of vertical deltas, vp (+1) and vn
// (−1); each byte of t advances it by one column in about 15 word
// operations, and d tracks its last cell. Shifting a 1 into the
// horizontal +1 vector makes row 0 read D[0][j] = j, which turns
// Myers' search into a global distance. Cells never decrease along a
// diagonal, so every fourth byte the kernel reads the cell of the
// final cell's diagonal in the current column (two popcounts) and
// stops once it exceeds k.
func (p *edPattern) within(t string, k int) bool {
	vp, vn := ^uint64(0), uint64(0)
	last := uint(p.m - 1)
	d := p.m
	diag := p.m - len(t) // row of the final diagonal in column 0
	for j := 0; j < len(t); j++ {
		pm := p.peq[t[j]]
		d0 := (((pm & vp) + vp) ^ vp) | pm | vn
		hp := vn | ^(d0 | vp)
		hn := vp & d0
		d += int(hp>>last&1) - int(hn>>last&1) // branch-free: mismatches are data-dependent
		hp = hp<<1 | 1
		vn = hp & d0
		vp = hn<<1 | ^(hp | d0)
		if r := diag + j + 1; j&3 == 3 && r > 0 {
			rows := ^uint64(0) >> (64 - uint(r))
			if j+1+bits.OnesCount64(vp&rows)-bits.OnesCount64(vn&rows) > k {
				return false
			}
		}
	}
	return d <= k
}

// edBanded reports whether ED(a, b) <= k for 1 <= k and
// |a| >= |b| > 0 with a length difference of at most k, using a banded
// dynamic program that costs O(k·|b|) and exits early when the whole
// band exceeds k. It serves the pairs too long for the kernel.
func edBanded(a, b string, k int) bool {
	la, lb := len(a), len(b)
	// Band of width 2k+1 around the diagonal. Bands up to k = 7 (every
	// rule threshold is at most 3) live in stack arrays, so the check
	// does not allocate.
	const inf = 1 << 29
	width := 2*k + 1
	var prevBuf, currBuf [15]int
	var prev, curr []int
	if width <= len(prevBuf) {
		prev, curr = prevBuf[:width], currBuf[:width]
	} else {
		prev, curr = make([]int, width), make([]int, width)
	}
	// prev[d] holds D[i-1][i-1+d-k]; initialise row 0.
	for d := 0; d < width; d++ {
		j := d - k
		if j < 0 || j > lb {
			prev[d] = inf
		} else {
			prev[d] = j
		}
	}
	for i := 1; i <= la; i++ {
		rowMin := inf
		for d := 0; d < width; d++ {
			j := i + d - k
			if j < 0 || j > lb {
				curr[d] = inf
				continue
			}
			if j == 0 {
				curr[d] = i
				rowMin = min(rowMin, i)
				continue
			}
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := inf
			if prev[d] != inf { // D[i-1][j-1]
				best = prev[d] + cost
			}
			if d+1 < width && prev[d+1] != inf { // D[i-1][j] (deletion from a)
				if v := prev[d+1] + 1; v < best {
					best = v
				}
			}
			if d-1 >= 0 && curr[d-1] != inf { // D[i][j-1] (insertion into a)
				if v := curr[d-1] + 1; v < best {
					best = v
				}
			}
			curr[d] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if rowMin > k {
			return false
		}
		prev, curr = curr, prev
	}
	d := lb - la + k
	return d >= 0 && d < width && prev[d] <= k
}

// Tokenize splits s into lower-cased alphanumeric tokens, the unit
// used by Jaccard and cosine similarity.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

func tokenSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, t := range Tokenize(s) {
		set[t] = true
	}
	return set
}

// Jaccard computes |tokens(a) ∩ tokens(b)| / |tokens(a) ∪ tokens(b)|.
// Two token-less strings have similarity 1 if equal and 0 otherwise.
func Jaccard(a, b string) float64 {
	sa, sb := tokenSet(a), tokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		if a == b {
			return 1
		}
		return 0
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Cosine computes the cosine similarity of the binary token vectors
// of a and b.
func Cosine(a, b string) float64 {
	sa, sb := tokenSet(a), tokenSet(b)
	if len(sa) == 0 || len(sb) == 0 {
		if a == b {
			return 1
		}
		return 0
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	return float64(inter) / (sqrtf(len(sa)) * sqrtf(len(sb)))
}

func sqrtf(n int) float64 {
	// Newton iteration; avoids importing math for one call site and is
	// exact enough for small token counts.
	if n <= 0 {
		return 0
	}
	x := float64(n)
	for i := 0; i < 20; i++ {
		x = 0.5 * (x + float64(n)/x)
	}
	return x
}
