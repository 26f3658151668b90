package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(c.n, p), p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted on purpose
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median(xs); got != 500 {
		t.Errorf("median of 1..1000 = %v, want 500", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestRatioIsReportedWithItsBase(t *testing.T) {
	m := metrics{}
	m.setRatio("repair.memo.tuple_hit_ratio", ratio{num: 750, base: 1000}, "repair.memo.tuple_lookups", "count")
	if got := m["repair.memo.tuple_hit_ratio"]; got.Value != 0.75 || got.Unit != "ratio" {
		t.Errorf("ratio = %+v, want 0.75 ratio", got)
	}
	if got := m["repair.memo.tuple_lookups"]; got.Value != 1000 || got.Unit != "count" {
		t.Errorf("base = %+v, want 1000 count", got)
	}
	if v := (ratio{num: 3, base: 0}).value(); v != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", v)
	}
}

func TestParseExpositionSumsLabelSets(t *testing.T) {
	got := map[string]float64{}
	parseExposition([]byte(`# HELP detective_http_shed_total Shed.
# TYPE detective_http_shed_total counter
detective_http_shed_total{tenant="t0"} 2
detective_http_shed_total{tenant="t1"} 3
detective_stream_dedup_rows_total 41
`), got)
	if got["detective_http_shed_total"] != 5 || got["detective_stream_dedup_rows_total"] != 41 {
		t.Errorf("parsed %v", got)
	}
}
