// The ensemble experiment: the weighted multi-engine vote against
// each single engine it is built from. Not part of the paper's own
// evaluation section — it measures the serving-path ensemble mode
// this reproduction adds on top of §V's systems.
package eval

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/repair/ensemble"
	"detective/internal/repair/ensemble/adapters"
)

// RunEnsemble cleans inj with the serving-path ensemble: the
// detective engine plus the KATARA, FD and constant-CFD proposers,
// combined per cell by the weighted vote. The auxiliary proposers are
// grounded the same way their standalone baselines are in this suite:
// KATARA on the dataset's table pattern against g, FDs and constant
// CFDs mined from ground truth (the paper's protocol for those
// baselines).
func RunEnsemble(d *dataset.Dataset, g *kb.Graph, inj *dataset.Injected) (RunResult, error) {
	store := kb.NewStore(g)
	pattern := d.Pattern
	if len(pattern.Nodes) == 0 {
		pattern = ensemble.PatternFromRules(d.Rules)
	}
	e, err := repair.NewEngineStore(d.Rules, store, d.Schema, repair.Options{
		Ensemble: repair.EnsembleOptions{
			Enabled:   true,
			Proposers: adapters.BuildProposers(d.Schema, pattern, store, inj.Truth),
		},
	})
	if err != nil {
		return RunResult{}, fmt.Errorf("eval: %s: %w", d.Name, err)
	}
	start := time.Now()
	repaired := &relation.Table{Schema: inj.Dirty.Schema, Tuples: make([]*relation.Tuple, inj.Dirty.Len())}
	for i, t := range inj.Dirty.Tuples {
		out := &relation.Tuple{Values: make([]string, len(t.Values)), Marked: make([]bool, len(t.Values))}
		e.RepairRowEnsemble(context.Background(), out, t.Values)
		repaired.Tuples[i] = out
	}
	dur := time.Since(start)

	var scope []bool
	if d.ScopeByKey {
		scope = KeyScope(inj.Dirty, g, d.KeyAttr, d.KeyType)
	}
	m := Score(inj.Truth, inj.Dirty, repaired, inj.Wrong, ScoreOpts{Scope: scope})
	m.POS = MarkedInScope(repaired, scope)
	return RunResult{System: "Ensemble", Metrics: m, Duration: dur}, nil
}

// EnsembleTable runs the ensemble against each of its constituent
// engines on Nobel and UIS (Yago KB, the suite's standard 10% noise),
// one QualityRow per (dataset, system).
func EnsembleTable(cfg ExpConfig) ([]QualityRow, error) {
	var out []QualityRow
	for _, mk := range []struct {
		name  string
		build func() *dataset.Bundle
	}{
		{"Nobel", func() *dataset.Bundle { return dataset.NewNobel(cfg.Seed, cfg.NobelTuples) }},
		{"UIS", func() *dataset.Bundle { return dataset.NewUIS(cfg.Seed, cfg.UISTuples) }},
	} {
		b := mk.build()
		inj := b.Inject(dataset.Noise{Rate: cfg.ErrRate, TypoFrac: cfg.TypoFrac, Seed: cfg.Seed})
		runs := make([]RunResult, 0, 5)
		dr, err := RunDR(&b.Dataset, b.Yago, inj, true)
		if err != nil {
			return nil, err
		}
		runs = append(runs, dr)
		kat, err := RunKATARA(&b.Dataset, b.Yago, inj)
		if err != nil {
			return nil, err
		}
		runs = append(runs, kat)
		llu, err := RunLlunatic(&b.Dataset, inj)
		if err != nil {
			return nil, err
		}
		runs = append(runs, llu)
		cf, err := RunCFD(&b.Dataset, inj)
		if err != nil {
			return nil, err
		}
		runs = append(runs, cf)
		ens, err := RunEnsemble(&b.Dataset, b.Yago, inj)
		if err != nil {
			return nil, err
		}
		runs = append(runs, ens)
		for _, r := range runs {
			out = append(out, QualityRow{
				Dataset: mk.name, System: r.System, KB: "Yago",
				P: r.Metrics.Precision(), R: r.Metrics.Recall(), F: r.Metrics.F1(),
				POS: r.Metrics.POS,
			})
		}
	}
	return out, nil
}

// PrintEnsemble renders the ensemble comparison table.
func PrintEnsemble(w io.Writer, rows []QualityRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ENSEMBLE REPAIR VS SINGLE ENGINES (Yago KB)")
	fmt.Fprintln(tw, "Dataset\tSystem\tPrecision\tRecall\tF-measure\t#-POS")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.2f\t%d\n",
			r.Dataset, r.System, r.P, r.R, r.F, r.POS)
	}
	tw.Flush()
}
