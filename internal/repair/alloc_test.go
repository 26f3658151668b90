//go:build !race

// The race detector makes sync.Pool drop a quarter of what it is
// given, so allocation counts are only meaningful without it.

package repair_test

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"detective/internal/dataset"
	"detective/internal/repair"
)

// TestFastRepairAllocs: FastRepair (memo off, as in
// BenchmarkFastRepairTuple) averages at most 4 allocations per row
// over Nobel-500's injected rows. Three are the returned clone; rule
// evaluation allocates only for repairs and canonical cells.
func TestFastRepairAllocs(t *testing.T) {
	bundle := dataset.NewNobel(1, 500)
	inj := bundle.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	e, err := repair.NewEngineWithOptions(bundle.Rules, bundle.Yago, bundle.Schema,
		repair.Options{MemoDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Warm()
	rows := inj.Dirty.Tuples
	perRow := testing.AllocsPerRun(3, func() {
		for _, tu := range rows {
			e.FastRepair(tu)
		}
	}) / float64(len(rows))
	if perRow > 4 {
		t.Errorf("FastRepair: %.2f allocs per row, want <= 4", perRow)
	}
	t.Logf("FastRepair: %.2f allocs per row over %d rows", perRow, len(rows))
}

// TestCleanCSVStreamAllocs: a memo-on engine streaming Nobel-500's
// injected rows for the first time averages at most 8 allocations per
// row, counted as the runtime.MemStats.Mallocs delta over one call;
// the memo's doorkeeper declines every row. A second pass on the same
// engine, which inserts every row into the memo, averages at most 7.
// encoding/csv builds fresh cell strings for every record, so the memo
// keeps them as decoded instead of cloning each one, and marked output
// cells are views of one reused buffer.
func TestCleanCSVStreamAllocs(t *testing.T) {
	bundle := dataset.NewNobel(1, 500)
	inj := bundle.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	e, err := repair.NewEngine(bundle.Rules, bundle.Yago, bundle.Schema)
	if err != nil {
		t.Fatal(err)
	}
	e.Warm()
	for _, pass := range []struct {
		name  string
		limit float64
	}{{"first sight", 8}, {"admitting", 7}} {
		var in bytes.Buffer
		if err := inj.Dirty.WriteCSV(&in); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := e.CleanCSVStreamContext(context.Background(), &in, io.Discard, true)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != inj.Dirty.Len() {
			t.Fatalf("%s: streamed %d of %d rows", pass.name, res.Rows, inj.Dirty.Len())
		}
		perRow := float64(after.Mallocs-before.Mallocs) / float64(res.Rows)
		if perRow > pass.limit {
			t.Errorf("CleanCSVStream, %s: %.2f allocs per row, want <= %.0f", pass.name, perRow, pass.limit)
		}
		t.Logf("CleanCSVStream, %s: %.2f allocs per row over %d rows (%d deduped)", pass.name, perRow, res.Rows, res.Deduped)
	}
}
