package similarity

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestEDBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"Chemistry", "Chamstry", 2}, // the paper's own example
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "cba", 2},
		{"Haifa", "Karcag", 4},
	}
	for _, c := range cases {
		if got := ED(c.a, c.b); got != c.want {
			t.Errorf("ED(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEDSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		return ED(a, b) == ED(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEDTriangleInequality(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 25 {
			a = a[:25]
		}
		if len(b) > 25 {
			b = b[:25]
		}
		if len(c) > 25 {
			c = c[:25]
		}
		return ED(a, c) <= ED(a, b)+ED(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEDWithinAgreesWithED(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha := "abcde"
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	for i := 0; i < 3000; i++ {
		a := randStr(rng.Intn(15))
		b := randStr(rng.Intn(15))
		for k := 0; k <= 4; k++ {
			want := ED(a, b) <= k
			if got := EDWithin(a, b, k); got != want {
				t.Fatalf("EDWithin(%q,%q,%d) = %v, want %v (ED=%d)", a, b, k, got, want, ED(a, b))
			}
		}
	}
}

// FuzzEDWithin holds EDWithin, the bit-parallel kernel for shorter
// strings of 1–64 bytes and the banded DP past them, to the plain DP.
func FuzzEDWithin(f *testing.F) {
	long := strings.Repeat("Israel Institute of Technology, Haifa; ", 2)
	f.Add("", "", uint8(0))
	f.Add("", "ab", uint8(2))
	f.Add("Chemistry", "Chemistry", uint8(1))
	f.Add("Chemistry", "Chamstry", uint8(2))
	f.Add("Z\xfcrich\x80", "\xffZurich", uint8(3))
	f.Add(long[:63], long[1:64], uint8(2))
	f.Add(long[:64], long[:63]+"X", uint8(1))
	f.Add(long[:65], long[2:66], uint8(4))
	f.Add(long[:64], long[:66], uint8(2))
	f.Fuzz(func(t *testing.T, a, b string, k uint8) {
		a, b = a[:min(len(a), 80)], b[:min(len(b), 80)]
		kk := int(k % 5)
		if got, want := EDWithin(a, b, kk), ED(a, b) <= kk; got != want {
			t.Fatalf("EDWithin(%q, %q, %d) = %v, ED = %d", a, b, kk, got, ED(a, b))
		}
	})
}

func TestEDWithinNegativeK(t *testing.T) {
	if EDWithin("a", "a", -1) {
		t.Fatal("EDWithin with negative k must be false")
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"Nobel Prize in Chemistry", "Nobel Prize in Chemistry", 1},
		{"Nobel Prize", "Nobel Prize in Chemistry", 0.5},
		{"", "", 1},
		{"abc", "", 0},
		{"a b", "b a", 1},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Jaccard(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCosineBounds(t *testing.T) {
	f := func(a, b string) bool {
		got := Cosine(a, b)
		return got >= -1e-9 && got <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := Cosine("ice cream", "cream ice"); math.Abs(got-1) > 1e-9 {
		t.Errorf("Cosine of permuted tokens = %v, want 1", got)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"=", Eq},
		{"eq", Eq},
		{"ED,2", EDK(2)},
		{"ed, 3", EDK(3)},
		{"JAC,0.8", JaccardAtLeast(0.8)},
		{"jaccard,0.5", JaccardAtLeast(0.5)},
		{"COS,0.7", CosineAtLeast(0.7)},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "ED", "ED,-1", "ED,x", "JAC,1.5", "FOO,1", "JAC,NaN", "COS,nan", "jaccard,NaN"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, sp := range []Spec{Eq, EDK(0), EDK(2), JaccardAtLeast(0.8), CosineAtLeast(0.75)} {
		got, err := ParseSpec(sp.String())
		if err != nil {
			t.Errorf("round trip %v: %v", sp, err)
			continue
		}
		if got != sp {
			t.Errorf("round trip %v = %v", sp, got)
		}
	}
}

func TestSpecMatch(t *testing.T) {
	if !Eq.Match("a", "a") || Eq.Match("a", "b") {
		t.Error("Eq.Match wrong")
	}
	if !EDK(2).Match("Chemistry", "Chamstry") {
		t.Error("EDK(2) should match the paper example")
	}
	if EDK(1).Match("Chemistry", "Chamstry") {
		t.Error("EDK(1) should not match the paper example")
	}
	if !JaccardAtLeast(0.4).Match("Nobel Prize", "Nobel Prize in Chemistry") {
		t.Error("Jaccard 0.5 >= 0.4 should match")
	}
}

func TestSpecFuzzy(t *testing.T) {
	if Eq.Fuzzy() || EDK(0).Fuzzy() {
		t.Error("equality specs must not be fuzzy")
	}
	if !EDK(1).Fuzzy() || !JaccardAtLeast(0.9).Fuzzy() {
		t.Error("tolerant specs must be fuzzy")
	}
}

func TestSegmentsCoverString(t *testing.T) {
	f := func(s string, n8 uint8) bool {
		n := int(n8%5) + 1
		segs := segments(s, n)
		joined := ""
		for _, sg := range segs {
			joined += sg
		}
		if joined != s {
			return false
		}
		starts := segmentStarts(len(s), n)
		pos := 0
		for i, se := range starts {
			if se[0] != pos || se[1] != len(segs[i]) {
				return false
			}
			if start, l := segment(len(s), n, i); start != se[0] || l != se[1] {
				return false
			}
			pos += se[1]
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringIndexEq(t *testing.T) {
	ix := NewStringIndex(2)
	ix.Add("Haifa", 1)
	ix.Add("Paris", 2)
	ix.Add("Haifa", 3) // same string, second payload
	got := ix.LookupEq("Haifa")
	if len(got) != 2 {
		t.Fatalf("LookupEq = %v, want 2 payloads", got)
	}
	if got := ix.LookupEq("Rome"); got != nil {
		t.Fatalf("LookupEq(miss) = %v, want nil", got)
	}
}

// TestStringIndexEDMatchesBruteForce requires LookupED to return
// exactly the entry-order scan of every entry within ED k of the query
// (payloads here are entry indexes, so the scan is the payload list).
// The oracle is the plain DP ED, not EDWithin, which shares the
// index's pattern kernel. Two corpora: random strings over six letters
// at maxK 2, and every string over {a,b} of length at most 9, as
// entries and as queries, at every maxK up to 3 and every k ≤ maxK.
func TestStringIndexEDMatchesBruteForce(t *testing.T) {
	check := func(maxK int, corpus, queries []string, dist func(q, s int) int) {
		t.Helper()
		ix := NewStringIndex(maxK)
		for i, s := range corpus {
			ix.Add(s, int32(i))
		}
		for qi, q := range queries {
			for k := 0; k <= maxK; k++ {
				var want []int32
				for i := range corpus {
					if dist(qi, i) <= k {
						want = append(want, int32(i))
					}
				}
				if got := ix.LookupED(q, k); !slices.Equal(got, want) {
					t.Fatalf("maxK %d: LookupED(%q,%d) = %v, entry-order scan %v", maxK, q, k, got, want)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(42))
	alpha := "abcdef"
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	var corpus, queries []string
	for i := 0; i < 300; i++ {
		corpus = append(corpus, randStr(rng.Intn(12)))
	}
	for q := 0; q < 200; q++ {
		queries = append(queries, randStr(rng.Intn(12)))
	}
	check(2, corpus, queries, func(q, s int) int { return ED(corpus[s], queries[q]) })

	ab := []string{""}
	for i := 0; len(ab[i]) < 9; i++ {
		ab = append(ab, ab[i]+"a", ab[i]+"b")
	}
	// One DP per pair, shared by every (maxK, k).
	eds := make([]int8, len(ab)*len(ab))
	for q, qs := range ab {
		for s, ss := range ab {
			eds[q*len(ab)+s] = int8(ED(ss, qs))
		}
	}
	for maxK := 0; maxK <= 3; maxK++ {
		check(maxK, ab, ab, func(q, s int) int { return int(eds[q*len(ab)+s]) })
	}
}

func TestStringIndexEDThresholdTooBig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > maxK")
		}
	}()
	ix := NewStringIndex(1)
	ix.LookupED("q", 2)
}

func TestStringIndexJaccardMatchesBruteForce(t *testing.T) {
	ix := NewStringIndex(0)
	corpus := []string{
		"Nobel Prize in Chemistry",
		"Nobel Prize in Physics",
		"Albert Lasker Award for Medicine",
		"National Medal of Science",
		"", // token-less entry
	}
	for i, s := range corpus {
		ix.Add(s, int32(i))
	}
	for _, q := range []string{"Nobel Prize", "Medal of Science", "", "Chemistry Prize Nobel in"} {
		for _, tau := range []float64{0.3, 0.5, 0.9, 1.0} {
			want := make(map[int32]bool)
			for i, s := range corpus {
				if Jaccard(s, q) >= tau {
					want[int32(i)] = true
				}
			}
			got := ix.LookupJaccard(q, tau)
			if len(got) != len(want) {
				t.Fatalf("LookupJaccard(%q,%v) = %v, want %d entries", q, tau, got, len(want))
			}
			for _, p := range got {
				if !want[p] {
					t.Fatalf("LookupJaccard(%q,%v): unexpected payload %d", q, tau, p)
				}
			}
		}
	}
}

func TestStringIndexLookupDispatch(t *testing.T) {
	ix := NewStringIndex(2)
	ix.Add("Israel Institute of Technology", 7)
	if got := ix.Lookup(Eq, "Israel Institute of Technology"); len(got) != 1 || got[0] != 7 {
		t.Errorf("Lookup(Eq) = %v", got)
	}
	if got := ix.Lookup(EDK(2), "Israel Institute of Technologie"); len(got) != 1 {
		t.Errorf("Lookup(ED,2) = %v", got)
	}
	if got := ix.Lookup(JaccardAtLeast(0.5), "Institute of Technology Israel"); len(got) != 1 {
		t.Errorf("Lookup(JAC) = %v", got)
	}
	if got := ix.Lookup(CosineAtLeast(0.5), "israel institute"); len(got) != 1 {
		t.Errorf("Lookup(COS) = %v", got)
	}
}

func TestStringIndexShortStrings(t *testing.T) {
	ix := NewStringIndex(2)
	ix.Add("a", 1)
	ix.Add("ab", 2)
	ix.Add("xyz", 3)
	got := ix.LookupED("ab", 1)
	// "a" (distance 1), "ab" (0); not "xyz" (3).
	if len(got) != 2 {
		t.Fatalf("LookupED over short strings = %v", got)
	}
}

func BenchmarkEDWithin(b *testing.B) {
	a, s := "Israel Institute of Technology", "Israel Institute of Technologie"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EDWithin(a, s, 2)
	}
}

// BenchmarkStringIndexBuild times the one-pass bulk build a catalog
// runs per KB class, over the same 50,000-string corpus as
// BenchmarkStringIndexLookupED.
func BenchmarkStringIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	alpha := "abcdefghij"
	strs := make([]string, 50000)
	for i := range strs {
		bs := make([]byte, 8+rng.Intn(8))
		for j := range bs {
			bs[j] = alpha[rng.Intn(len(alpha))]
		}
		strs[i] = string(bs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payloads := make([]int32, len(strs))
		for j := range payloads {
			payloads[j] = int32(j)
		}
		BuildStringIndex(2, append([]string(nil), strs...), payloads)
	}
}

func BenchmarkStringIndexLookupED(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	alpha := "abcdefghij"
	randStr := func(n int) string {
		bs := make([]byte, n)
		for i := range bs {
			bs[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(bs)
	}
	ix := NewStringIndex(2)
	for i := 0; i < 50000; i++ {
		ix.Add(randStr(8+rng.Intn(8)), int32(i))
	}
	q := randStr(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.LookupED(q, 2)
	}
}

func TestQGramIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	alpha := "abcdef"
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	ix := NewQGramIndex(2)
	var corpus []string
	for i := 0; i < 300; i++ {
		s := randStr(rng.Intn(14))
		corpus = append(corpus, s)
		ix.Add(s, int32(i))
	}
	if ix.Len() != 300 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for q := 0; q < 200; q++ {
		query := randStr(rng.Intn(14))
		for k := 0; k <= 2; k++ {
			want := make(map[int32]bool)
			for i, s := range corpus {
				if EDWithin(s, query, k) {
					want[int32(i)] = true
				}
			}
			got := ix.LookupED(query, k)
			if len(got) != len(want) {
				t.Fatalf("LookupED(%q,%d): got %d, want %d", query, k, len(got), len(want))
			}
			for _, p := range got {
				if !want[p] {
					t.Fatalf("LookupED(%q,%d): unexpected %d (%q)", query, k, p, corpus[p])
				}
			}
		}
	}
}

func TestQGramIndexPanicsOnBadQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for q < 1")
		}
	}()
	NewQGramIndex(0)
}

// BenchmarkSignatureVsQGram compares the paper's PASS-JOIN-style
// segment index against the folklore q-gram count filter on the kind
// of strings the KB actually holds.
func benchIndexCorpus(n int) ([]string, []string) {
	rng := rand.New(rand.NewSource(5))
	alpha := "abcdefghijklmnop"
	randStr := func(ln int) string {
		bs := make([]byte, ln)
		for i := range bs {
			bs[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(bs)
	}
	corpus := make([]string, n)
	for i := range corpus {
		corpus[i] = randStr(8 + rng.Intn(12))
	}
	queries := make([]string, 200)
	for i := range queries {
		queries[i] = randStr(10 + rng.Intn(8))
	}
	return corpus, queries
}

func BenchmarkLookupEDPassJoin(b *testing.B) {
	corpus, queries := benchIndexCorpus(30000)
	ix := NewStringIndex(2)
	for i, s := range corpus {
		ix.Add(s, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.LookupED(queries[i%len(queries)], 2)
	}
}

func BenchmarkLookupEDQGram(b *testing.B) {
	corpus, queries := benchIndexCorpus(30000)
	ix := NewQGramIndex(2)
	for i, s := range corpus {
		ix.Add(s, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.LookupED(queries[i%len(queries)], 2)
	}
}
