package repair_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"strings"
	"testing"

	"detective/internal/repair"
	"detective/internal/repair/ensemble"
)

// chaosProposer is an adversarial auxiliary engine: it proposes a
// garbage rewrite for every cell at full confidence. Zero-weighted it
// must leave the vote untouched; the parity property below depends on
// that silencing being total.
type chaosProposer struct{}

func (chaosProposer) Name() string { return "chaos" }

func (chaosProposer) Propose(ctx context.Context, values []string, marked []bool) []ensemble.Proposal {
	out := make([]ensemble.Proposal, 0, len(values))
	for i, v := range values {
		out = append(out, ensemble.Proposal{Col: i, Value: "CHAOS-" + v, Conf: 1, KB: true})
	}
	return out
}

// detectiveOnlyWeights silences every engine except the detective.
var detectiveOnlyWeights = map[string]float64{
	"detective": 1,
	"katara":    0,
	"llunatic":  0,
	"cfd":       0,
	"chaos":     0,
}

// stripConfidence parses an ensemble-mode CSV, asserts the trailing
// confidence column is present and unanimous at 1.000 (a lone
// detective vote always wins outright), and returns the CSV re-encoded
// without it.
func stripConfidence(t *testing.T, raw string) string {
	t.Helper()
	cr := csv.NewReader(strings.NewReader(raw))
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		t.Fatalf("parsing ensemble output: %v", err)
	}
	if len(recs) == 0 || recs[0][len(recs[0])-1] != "confidence" {
		t.Fatalf("ensemble output lacks the confidence header column: %v", recs[0])
	}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for i, rec := range recs {
		if i > 0 {
			if conf := rec[len(rec)-1]; conf != "1.000" {
				t.Fatalf("row %d confidence = %s, want 1.000 under detective-only weights", i, conf)
			}
		}
		if err := cw.Write(rec[:len(rec)-1]); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	return buf.String()
}

// The parity property: ensemble mode with weights {detective: 1,
// everything else: 0} — including an adversarial proposer spraying
// garbage at weight 0 — must produce byte-identical output to the
// single-engine stream once the appended confidence column is
// stripped. This pins the ensemble path to the engine's existing
// semantics: whatever the vote machinery does, a silenced ensemble IS
// the single engine. workers=N runs N ensemble streams through one
// engine at once, as detectived serves concurrent /clean requests;
// every one of them must still match.
func TestEnsembleParityDetectiveOnly(t *testing.T) {
	for _, tc := range streamCases(t) {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				single, err := repair.NewEngineWithOptions(tc.rules, tc.kb, tc.schema, repair.Options{})
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				wantRes, err := single.CleanCSVStreamContext(context.Background(),
					strings.NewReader(tc.input), &want, true)
				if err != nil {
					t.Fatal(err)
				}

				ens, err := repair.NewEngineWithOptions(tc.rules, tc.kb, tc.schema,
					repair.Options{Ensemble: repair.EnsembleOptions{
						Enabled:   true,
						Weights:   detectiveOnlyWeights,
						Proposers: []ensemble.Proposer{chaosProposer{}},
					}})
				if err != nil {
					t.Fatal(err)
				}
				outs, ress, errs := streamConcurrently(ens.CleanCSVStreamEnsembleContext, tc.input, workers, true)
				for s := range workers {
					if errs[s] != nil {
						t.Fatalf("stream %d: %v", s, errs[s])
					}
					if ress[s].Rows != wantRes.Rows {
						t.Fatalf("stream %d rows: ensemble %d, single %d", s, ress[s].Rows, wantRes.Rows)
					}
					if ress[s].BelowThreshold != 0 {
						t.Fatalf("stream %d BelowThreshold = %d, want 0: a lone full-weight detective never degrades",
							s, ress[s].BelowThreshold)
					}
					stripped := stripConfidence(t, outs[s])
					if stripped != want.String() {
						t.Fatalf("stream %d: ensemble output diverged from single-engine output\nensemble:\n%s\nsingle:\n%s",
							s, stripped, want.String())
					}
				}
			})
		}
	}
}
