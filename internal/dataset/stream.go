package dataset

import (
	"math/rand"

	"detective/internal/relation"
)

// DuplicateBursts returns a copy of tb with each row repeated in a
// short consecutive burst of 1..maxBurst copies (uniformly drawn).
// Real extraction pipelines emit exactly this shape — the same record
// re-scraped from adjacent pages or near-identical list entries — and
// it is the duplicate-heavy distribution the repair memo answers from
// cache. The expected output size is
// len(tb) × (maxBurst+1)/2 rows.
func DuplicateBursts(tb *relation.Table, seed int64, maxBurst int) *relation.Table {
	if maxBurst < 1 {
		maxBurst = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := &relation.Table{Schema: tb.Schema}
	for _, tu := range tb.Tuples {
		for r := 1 + rng.Intn(maxBurst); r > 0; r-- {
			out.Tuples = append(out.Tuples, tu.Clone())
		}
	}
	return out
}

// ZipfTable draws n rows from tb with Zipf-distributed row popularity
// of skew s: a handful of rows dominate the stream while a long tail
// appears once or twice — the value-frequency skew of real dirty
// feeds (HoloClean's observation that error signals concentrate on
// few recurring values) and the workload the cross-request repair
// memo is built for. The popularity ranking is a seeded shuffle of
// tb, so rank is independent of input order; the draw sequence is
// fully determined by (tb, seed, s, n). The Zipf law requires s > 1;
// smaller values are clamped to just above 1 (near-uniform).
func ZipfTable(tb *relation.Table, seed int64, s float64, n int) *relation.Table {
	if tb.Len() == 0 || n <= 0 {
		return &relation.Table{Schema: tb.Schema}
	}
	if s <= 1 {
		s = 1.0000001
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(tb.Len())
	z := rand.NewZipf(rng, s, 1, uint64(tb.Len()-1))
	out := &relation.Table{Schema: tb.Schema, Tuples: make([]*relation.Tuple, 0, n)}
	for i := 0; i < n; i++ {
		out.Tuples = append(out.Tuples, tb.Tuples[perm[z.Uint64()]].Clone())
	}
	return out
}
