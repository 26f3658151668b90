package similarity

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// indexSpecs lists every lookup the oracle checks against an index
// built with maxK: equality, every ED threshold up to maxK, and a
// spread of Jaccard and cosine thresholds.
func indexSpecs(maxK int) []Spec {
	specs := []Spec{Eq}
	for k := 0; k <= maxK; k++ {
		specs = append(specs, EDK(k))
	}
	for _, tau := range []float64{0, 0.34, 0.5, 0.8, 1} {
		specs = append(specs, JaccardAtLeast(tau), CosineAtLeast(tau))
	}
	return specs
}

// checkAgainstReference builds the flat index three ways (bulk, one Add
// at a time, and bulk over the first half then Add for the rest) and
// asserts that each returns exactly the reference's slice for every
// query and spec (for ED specs, the entry-order scan with ED), and the
// same payload set as a brute-force scan with Spec.Match (for token
// thresholds above zero).
func checkAgainstReference(t *testing.T, maxK int, strs []string, payloads []int32, queries []string) {
	t.Helper()
	ref := newRefIndex(maxK)
	added := NewStringIndex(maxK)
	for i, s := range strs {
		ref.Add(s, payloads[i])
		added.Add(s, payloads[i])
	}
	half := len(strs) / 2
	mixed := BuildStringIndex(maxK, append([]string(nil), strs[:half]...), append([]int32(nil), payloads[:half]...))
	for i := half; i < len(strs); i++ {
		mixed.Add(strs[i], payloads[i])
	}
	built := BuildStringIndex(maxK, append([]string(nil), strs...), append([]int32(nil), payloads...))
	indexes := []struct {
		name string
		ix   *StringIndex
	}{{"built", built}, {"added", added}, {"mixed", mixed}}
	for _, q := range queries {
		for _, spec := range indexSpecs(maxK) {
			want := ref.Lookup(spec, q)
			for _, x := range indexes {
				if got := x.ix.Lookup(spec, q); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s index, maxK %d, Lookup(%v, %q) = %v, reference %v (entries %q)",
						x.name, maxK, spec, q, got, want, strs)
				}
			}
			if spec.Op != OpEq && spec.Op != OpED && spec.Tau <= 0 {
				// A zero token threshold accepts every string, but the
				// token index (like the reference) only enumerates
				// entries sharing a token with q, plus token-less ones.
				continue
			}
			scan := map[int32]bool{}
			for i, s := range strs {
				if spec.Match(q, s) {
					scan[payloads[i]] = true
				}
			}
			got := map[int32]bool{}
			for _, p := range want {
				got[p] = true
			}
			if !reflect.DeepEqual(got, scan) {
				t.Fatalf("maxK %d, Lookup(%v, %q) = %v, brute-force scan %v", maxK, spec, q, sortedKeys(got), sortedKeys(scan))
			}
		}
	}
}

func sortedKeys(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FuzzStringIndex checks the flat index against the map-based reference
// it replaced: the same payloads in the same order for every lookup,
// which for ED lookups is entry order.
// Entries and queries are newline-separated; payloads repeat, so one
// payload sits under several strings and one string under several
// payloads.
func FuzzStringIndex(f *testing.F) {
	f.Add("Haifa\nKarcag\nHaifa\n\nab\nIsrael Institute of Technology", "Hifa\n\nab\nTechnology Israel", uint8(2))
	f.Add("a\nab\nabc\nabcd\n", "b\nabd\n\n", uint8(3))
	f.Add("Zürich\nİstanbul\nSão Paulo\n\xff\xfe\nZURICH", "zürich\nistanbul\n\xff\nSao Paulo", uint8(1))
	f.Add("Nobel Prize in Chemistry\nNobel Prize in Physics\n---\n  \nprize PRIZE prize", "Prize Nobel\nphysics\n-\n", uint8(0))
	f.Add("aaaa\naaaa\naaab\nbaaa\naaaaaaa", "aaaa\naaa\naaaaa", uint8(3))
	f.Fuzz(func(t *testing.T, entries, queries string, k uint8) {
		maxK := int(k % 4)
		strs := strings.Split(entries, "\n")
		if len(strs) > 32 {
			strs = strs[:32]
		}
		payloads := make([]int32, len(strs))
		for i := range payloads {
			payloads[i] = int32(i % (len(strs)/2 + 1))
		}
		qs := strings.Split(queries, "\n")
		if len(qs) > 8 {
			qs = qs[:8]
		}
		// The first entries are also queries: exact hits and their
		// near-duplicates exercise the posting lists hardest.
		checkAgainstReference(t, maxK, strs, payloads, append(qs, strs[:min(len(strs), 8)]...))
	})
}

// TestStringIndexMatchesReference runs the oracle over larger random
// corpora than the fuzz seeds: long posting lists, table growth and
// candidate sets past the small-set path.
func TestStringIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := []string{"ab", "abc", "Nobel", "prize", "Zürich", "İ", "x", "", " ", "de", "Haifa", "ÅÄ"}
	randStr := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			if rng.Intn(3) == 0 {
				b.WriteString(words[rng.Intn(len(words))])
			} else {
				b.WriteByte("abcdeAB -"[rng.Intn(9)])
			}
		}
		return b.String()
	}
	for maxK := 0; maxK <= 3; maxK++ {
		strs := make([]string, 1500)
		payloads := make([]int32, len(strs))
		for i := range strs {
			strs[i] = randStr()
			payloads[i] = int32(rng.Intn(1000))
		}
		queries := make([]string, 60)
		for i := range queries {
			if i%2 == 0 {
				queries[i] = strs[rng.Intn(len(strs))]
			} else {
				queries[i] = randStr()
			}
		}
		checkAgainstReference(t, maxK, strs, payloads, queries)
	}
}

// TestForEachTokenMatchesTokenize pins the allocation-free tokenizer
// the index keys on to Tokenize, which verification still uses.
func TestForEachTokenMatchesTokenize(t *testing.T) {
	for _, s := range []string{"", "a", "Nobel Prize", "  x--Y  ", "Zürich İstanbul", "\xff\xfeab\xffCD", "ǅungla", "ΣΑΣ", "a1_b2"} {
		var want, got []uint64
		for _, tok := range Tokenize(s) {
			want = append(want, keyHash(tagToken, tok))
		}
		forEachToken(s, func(h uint64) { got = append(got, h) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("forEachToken(%q) = %v, Tokenize hashes %v (tokens %q)", s, got, want, Tokenize(s))
		}
	}
}
