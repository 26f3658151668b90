package repair_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/faultinject"
	"detective/internal/relation"
	"detective/internal/repair"
)

// randomStreamTable builds a random table for the streaming
// equivalence property: cells are sampled column-wise from a real
// dirty table (so rules fire), replaced by random garbage (so rules
// miss), or poisoned with the panic trigger (so rows quarantine), and
// rows are emitted in short duplicate bursts, mimicking the
// duplicate-heavy distributions of the eval datasets.
func randomStreamTable(rng *rand.Rand, src *relation.Table, n int, poison string) *relation.Table {
	letters := []rune("abcdefghijklmnopqrstuvwxyz ")
	garbage := func() string {
		var b strings.Builder
		for i := 0; i < 3+rng.Intn(12); i++ {
			b.WriteRune(letters[rng.Intn(len(letters))])
		}
		return b.String()
	}
	out := &relation.Table{Schema: src.Schema}
	for out.Len() < n {
		tu := src.Tuples[rng.Intn(src.Len())].Clone()
		for j := range tu.Values {
			switch rng.Intn(10) {
			case 0:
				tu.Values[j] = garbage()
			case 1:
				// Swap in the same column of another row: plausible
				// but wrong values, the paper's error model.
				tu.Values[j] = src.Tuples[rng.Intn(src.Len())].Values[j]
			}
			tu.Marked[j] = false
		}
		if rng.Intn(25) == 0 {
			tu.Values[rng.Intn(len(tu.Values))] = poison
		}
		// Bursty duplicates: 1–4 consecutive copies of the row.
		for r := 1 + rng.Intn(4); r > 0 && out.Len() < n; r-- {
			out.Tuples = append(out.Tuples, tu.Clone())
		}
	}
	return out
}

// TestFaultStreamRandomTables is the stream's property test: for
// random tables — including rows whose repair panics (quarantine, via
// the injected similarity hook) and rows that exhaust a starved step
// budget — the streamed output must be byte-identical to the table
// repair written with WriteMarkedCSV, with identical accounting. The
// fault CI job runs it under -race.
func TestFaultStreamRandomTables(t *testing.T) {
	const poison = "POISON-STREAM-13F"
	defer faultinject.PanicOnValue(poison)()

	nb := dataset.NewNobel(21, 120)
	inj := nb.Inject(dataset.Noise{Rate: 0.2, TypoFrac: 0.5, Seed: 21})

	budgets := []int{0, 2} // full repair, and a starved budget that degrades rows
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := randomStreamTable(rng, inj.Dirty, 200, poison)
		var in bytes.Buffer
		if err := tb.WriteCSV(&in); err != nil {
			t.Fatal(err)
		}
		input := in.String()

		for _, budget := range budgets {
			table, err := repair.NewEngineWithOptions(nb.Rules, nb.Yago, nb.Schema,
				repair.Options{StepBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			repaired, stats, err := table.RepairTableContext(context.Background(), tb, 0)
			if err != nil {
				t.Fatalf("seed %d budget %d table: %v", seed, budget, err)
			}
			var wantOut bytes.Buffer
			if err := repaired.WriteMarkedCSV(&wantOut); err != nil {
				t.Fatal(err)
			}

			stream, err := repair.NewEngineWithOptions(nb.Rules, nb.Yago, nb.Schema,
				repair.Options{StepBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			var gotOut bytes.Buffer
			gotRes, err := stream.CleanCSVStreamContext(context.Background(),
				strings.NewReader(input), &gotOut, true)
			if err != nil {
				t.Fatalf("seed %d budget %d stream: %v", seed, budget, err)
			}
			requireSameOutput(t, fmt.Sprintf("seed %d budget %d", seed, budget), gotOut.String(), wantOut.String())
			if gotRes.Rows != tb.Len() ||
				int64(gotRes.Quarantined) != stats.Quarantined ||
				int64(gotRes.BudgetExhausted) != stats.BudgetExhausted {
				t.Fatalf("seed %d budget %d: stream %+v, table %+v",
					seed, budget, gotRes, stats)
			}
			if budget == 0 && gotRes.Quarantined == 0 {
				t.Fatalf("seed %d: property never exercised quarantine (res %+v)", seed, gotRes)
			}
		}
	}
}
