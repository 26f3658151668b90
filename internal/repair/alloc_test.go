//go:build !race

// The race detector makes sync.Pool drop a quarter of what it is
// given, so allocation counts are only meaningful without it.

package repair_test

import (
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
