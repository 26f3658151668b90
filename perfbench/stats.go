package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it.
const minBeyond = 10

// percentileLadder is the set of percentiles a timing may be reported
// at, lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of the ladder with at
// least minBeyond of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// beyond is the number of n samples strictly above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1e-9: 99.9% of 10000 is 9990, not 9991
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place), or NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is a share reported together with its base: hits of lookups,
// residual of an end-to-end time, and so on.
type ratio struct {
	num, base float64
}

// value is num/base, or 0 for an empty base.
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

// metric is one named, united value of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered set of named metrics.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// setRatio records r under name and its base under baseName, so no
// ratio is ever reported without the count it divides by.
func (m metrics) setRatio(name string, r ratio, baseName, baseUnit string) {
	m.set(name, r.value(), "ratio")
	m.set(baseName, r.base, baseUnit)
}
