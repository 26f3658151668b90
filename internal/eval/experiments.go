package eval

import (
	"fmt"
	"time"

	"detective/internal/dataset"
	"detective/internal/katara"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/rules"
)

// ExpConfig scales the experiment suite. The paper's sizes (1,069
// Nobel tuples, 100K UIS tuples) are reachable by raising the fields;
// the defaults keep a full suite run in CI-friendly time while
// preserving every reported shape.
type ExpConfig struct {
	Seed int64

	NobelTuples int // paper: 1069
	UISTuples   int // paper: 100K; quality experiments (Table III, Fig 6/7)

	ErrRate     float64 // paper: 10% for Table III and Fig 7
	TypoFrac    float64 // paper: 50/50 split
	WebTypoFrac float64 // typo share of the WebTables "original dirt"
	WebHardFrac float64 // share of hard (unrepairable) typos on WebTables

	Rates     []float64 // Fig 6 error rates
	TypoRates []float64 // Fig 7 typo percentages

	Fig8Tuples  []int // Fig 8(d) UIS sizes
	Fig8UISSize int   // Fig 8(c) UIS size (paper: 20K)

	// Repeats averages each timing measurement over this many runs
	// (the paper ran each experiment six times and averaged).
	Repeats int
}

// DefaultConfig returns the reduced-scale defaults.
func DefaultConfig() ExpConfig {
	return ExpConfig{
		Seed:        1,
		NobelTuples: 1069,
		UISTuples:   5000,
		ErrRate:     0.10,
		TypoFrac:    0.5,
		WebTypoFrac: 0.65,
		WebHardFrac: 0.1,
		Rates:       []float64{0.04, 0.08, 0.12, 0.16, 0.20},
		TypoRates:   []float64{0, 0.25, 0.5, 0.75, 1.0},
		Fig8Tuples:  []int{1000, 2000, 4000, 6000, 8000},
		Fig8UISSize: 4000,
		Repeats:     1,
	}
}

// PaperScaleConfig returns the full paper sizes (slow: the basic
// repair algorithm is deliberately quadratic in the class extents).
func PaperScaleConfig() ExpConfig {
	c := DefaultConfig()
	c.UISTuples = 100000
	c.Fig8Tuples = []int{20000, 40000, 60000, 80000, 100000}
	c.Fig8UISSize = 20000
	return c
}

// ---------------------------------------------------------------- Table II

// AlignRow is one row of Table II: how many of the dataset's classes
// and relationships align with (exist in) a KB build.
type AlignRow struct {
	Dataset   string
	KB        string
	Classes   int
	Relations int
}

// alignment counts the distinct rule/pattern classes and relations
// present in g.
func alignment(rs []*rules.DR, pattern rules.Graph, g *kb.Graph) (classes, relations int) {
	cls := make(map[string]bool)
	rel := make(map[string]bool)
	addNode := func(n rules.Node) {
		if g.Lookup(n.Type) != kb.Invalid {
			cls[n.Type] = true
		}
	}
	addEdge := func(e rules.Edge) {
		if g.Lookup(e.Rel) != kb.Invalid {
			rel[e.Rel] = true
		}
	}
	for _, r := range rs {
		for _, n := range r.Evidence {
			addNode(n)
		}
		addNode(r.Pos)
		if r.Neg != nil {
			addNode(*r.Neg)
		}
		for _, e := range r.Edges {
			addEdge(e)
		}
	}
	for _, n := range pattern.Nodes {
		addNode(n)
	}
	for _, e := range pattern.Edges {
		addEdge(e)
	}
	return len(cls), len(rel)
}

// TableII computes the alignment statistics for all three datasets
// against both KB builds.
func TableII(cfg ExpConfig) []AlignRow {
	var out []AlignRow

	wb := dataset.NewWebTables(cfg.Seed)
	for _, kbName := range dataset.KBNames {
		g := wb.KB(kbName)
		cls := make(map[string]bool)
		rel := make(map[string]bool)
		for _, d := range wb.Tables {
			// Count distinct names across all 37 tables, not per-table
			// sums.
			for _, dr := range d.Rules {
				for _, n := range append(append([]rules.Node{}, dr.Evidence...), dr.Pos) {
					if g.Lookup(n.Type) != kb.Invalid {
						cls[n.Type] = true
					}
				}
				if dr.Neg != nil && g.Lookup(dr.Neg.Type) != kb.Invalid {
					cls[dr.Neg.Type] = true
				}
				for _, e := range dr.Edges {
					if g.Lookup(e.Rel) != kb.Invalid {
						rel[e.Rel] = true
					}
				}
			}
		}
		out = append(out, AlignRow{Dataset: "WebTables", KB: kbName, Classes: len(cls), Relations: len(rel)})
	}

	nb := dataset.NewNobel(cfg.Seed, cfg.NobelTuples)
	for _, kbName := range dataset.KBNames {
		c, r := alignment(nb.Rules, nb.Pattern, nb.KB(kbName))
		out = append(out, AlignRow{Dataset: "Nobel", KB: kbName, Classes: c, Relations: r})
	}
	uis := dataset.NewUIS(cfg.Seed, cfg.UISTuples)
	for _, kbName := range dataset.KBNames {
		c, r := alignment(uis.Rules, uis.Pattern, uis.KB(kbName))
		out = append(out, AlignRow{Dataset: "UIS", KB: kbName, Classes: c, Relations: r})
	}
	return out
}

// --------------------------------------------------------------- Table III

// QualityRow is one row of Table III: a (dataset, system, KB) cell
// with precision/recall/F-measure and #-POS.
type QualityRow struct {
	Dataset string
	System  string // "DRs" or "KATARA"
	KB      string
	P, R, F float64
	POS     int
}

// TableIII reproduces the data annotation and repair accuracy
// comparison (DRs vs KATARA on both KBs, all three datasets, 10%
// errors on Nobel/UIS).
func TableIII(cfg ExpConfig) ([]QualityRow, error) {
	var out []QualityRow

	// WebTables: aggregate over the 37 tables.
	wb := dataset.NewWebTables(cfg.Seed)
	for _, kbName := range dataset.KBNames {
		var drM, katM Metrics
		for i, d := range wb.Tables {
			inj := d.Inject(dataset.Noise{Rate: cfg.ErrRate, TypoFrac: cfg.WebTypoFrac,
				HardFrac: cfg.WebHardFrac, SwapFallback: true, Seed: cfg.Seed + int64(i)})
			dr, err := RunDR(d, wb.KB(kbName), inj, true)
			if err != nil {
				return nil, err
			}
			drM.Add(dr.Metrics)
			kat, err := RunKATARA(d, wb.KB(kbName), inj)
			if err != nil {
				return nil, err
			}
			katM.Add(kat.Metrics)
		}
		out = append(out,
			QualityRow{"WebTables", "DRs", kbName, drM.Precision(), drM.Recall(), drM.F1(), drM.POS},
			QualityRow{"WebTables", "KATARA", kbName, katM.Precision(), katM.Recall(), katM.F1(), katM.POS})
	}

	for _, mk := range []struct {
		name  string
		build func() *dataset.Bundle
	}{
		{"Nobel", func() *dataset.Bundle { return dataset.NewNobel(cfg.Seed, cfg.NobelTuples) }},
		{"UIS", func() *dataset.Bundle { return dataset.NewUIS(cfg.Seed, cfg.UISTuples) }},
	} {
		b := mk.build()
		inj := b.Inject(dataset.Noise{Rate: cfg.ErrRate, TypoFrac: cfg.TypoFrac, Seed: cfg.Seed})
		for _, kbName := range dataset.KBNames {
			dr, err := RunDR(&b.Dataset, b.KB(kbName), inj, true)
			if err != nil {
				return nil, err
			}
			kat, err := RunKATARA(&b.Dataset, b.KB(kbName), inj)
			if err != nil {
				return nil, err
			}
			out = append(out,
				QualityRow{mk.name, "DRs", kbName, dr.Metrics.Precision(), dr.Metrics.Recall(), dr.Metrics.F1(), dr.Metrics.POS},
				QualityRow{mk.name, "KATARA", kbName, kat.Metrics.Precision(), kat.Metrics.Recall(), kat.Metrics.F1(), kat.Metrics.POS})
		}
	}
	return out, nil
}

// ------------------------------------------------------------ Figures 6/7

// CurvePoint is one x-position of a quality curve.
type CurvePoint struct {
	X       float64
	P, R, F float64
}

// Curve is one (dataset, system) line of Figures 6 or 7.
type Curve struct {
	Dataset string
	System  string
	Points  []CurvePoint
}

// qualitySweep runs the Exp-2 systems over one noise axis.
func qualitySweep(b *dataset.Bundle, noises []dataset.Noise, xs []float64) ([]Curve, error) {
	systems := []string{"bRepair(Yago)", "bRepair(DBpedia)", "Llunatic", "constant CFDs"}
	curves := make([]Curve, len(systems))
	for i, s := range systems {
		curves[i] = Curve{Dataset: b.Name, System: s}
	}
	for i, noise := range noises {
		inj := b.Inject(noise)
		// bRepair and fRepair compute identical repairs; the sweep uses
		// the fast engine so paper-scale configs stay tractable.
		y, err := RunDR(&b.Dataset, b.Yago, inj, true)
		if err != nil {
			return nil, err
		}
		d, err := RunDR(&b.Dataset, b.DBpedia, inj, true)
		if err != nil {
			return nil, err
		}
		l, err := RunLlunatic(&b.Dataset, inj)
		if err != nil {
			return nil, err
		}
		c, err := RunCFD(&b.Dataset, inj)
		if err != nil {
			return nil, err
		}
		for k, r := range []RunResult{y, d, l, c} {
			m := r.Metrics
			curves[k].Points = append(curves[k].Points,
				CurvePoint{X: xs[i], P: m.Precision(), R: m.Recall(), F: m.F1()})
		}
	}
	return curves, nil
}

// Figure6 varies the error rate (typo/semantic fixed at 50/50) on
// Nobel and UIS.
func Figure6(cfg ExpConfig) ([]Curve, error) {
	var out []Curve
	for _, b := range []*dataset.Bundle{
		dataset.NewNobel(cfg.Seed, cfg.NobelTuples),
		dataset.NewUIS(cfg.Seed, cfg.UISTuples),
	} {
		var noises []dataset.Noise
		var xs []float64
		for _, rate := range cfg.Rates {
			noises = append(noises, dataset.Noise{Rate: rate, TypoFrac: 0.5, Seed: cfg.Seed})
			xs = append(xs, rate*100)
		}
		cs, err := qualitySweep(b, noises, xs)
		if err != nil {
			return nil, err
		}
		out = append(out, cs...)
	}
	return out, nil
}

// Figure7 fixes the error rate at cfg.ErrRate and varies the typo
// percentage from 0 to 100 on Nobel and UIS.
func Figure7(cfg ExpConfig) ([]Curve, error) {
	var out []Curve
	for _, b := range []*dataset.Bundle{
		dataset.NewNobel(cfg.Seed, cfg.NobelTuples),
		dataset.NewUIS(cfg.Seed, cfg.UISTuples),
	} {
		var noises []dataset.Noise
		var xs []float64
		for _, tf := range cfg.TypoRates {
			noises = append(noises, dataset.Noise{Rate: cfg.ErrRate, TypoFrac: tf, Seed: cfg.Seed})
			xs = append(xs, tf*100)
		}
		cs, err := qualitySweep(b, noises, xs)
		if err != nil {
			return nil, err
		}
		out = append(out, cs...)
	}
	return out, nil
}

// -------------------------------------------------------------- Figure 8

// TimePoint is one x-position of an efficiency curve.
type TimePoint struct {
	X       float64
	Seconds float64
}

// TimeCurve is one line of Figure 8.
type TimeCurve struct {
	Label  string
	Points []TimePoint
}

// timedEngine builds an engine for the Figure 8 timings. The repair
// memo is off: the paper's fRepair has no cross-tuple cache, and with
// it every timed pass after the first would replay the memo, which
// bRepair never reads.
func timedEngine(rs []*rules.DR, g *kb.Graph, schema *relation.Schema) (*repair.Engine, error) {
	return repair.NewEngineWithOptions(rs, g, schema, repair.Options{MemoDisabled: true})
}

// timeRepair measures repairing every tuple of inj with the engine,
// averaged over repeats runs (the paper averaged six). Matching the
// paper's protocol for Figure 8(a)-(c), the engine is warmed first so
// KB reading/handling time is excluded.
func timeRepair(e *repair.Engine, inj *dataset.Injected, fast bool, repeats int) time.Duration {
	if repeats < 1 {
		repeats = 1
	}
	e.Warm()
	var total time.Duration
	for i := 0; i < repeats; i++ {
		start := time.Now()
		e.RepairTable(inj.Dirty, fast)
		total += time.Since(start)
	}
	return total / time.Duration(repeats)
}

// Figure8a varies the number of rules (10..50 in steps of 10) on
// WebTables: total repair time of all 37 tables using the first k
// rules of the corpus-wide rule list.
func Figure8a(cfg ExpConfig) ([]TimeCurve, error) {
	wb := dataset.NewWebTables(cfg.Seed)

	// Corpus-wide rule order, deduplicated by rule name.
	var allRules []string
	seen := make(map[string]bool)
	for _, d := range wb.Tables {
		for _, r := range d.Rules {
			if !seen[r.Name] {
				seen[r.Name] = true
				allRules = append(allRules, r.Name)
			}
		}
	}

	injs := make([]*dataset.Injected, len(wb.Tables))
	for i, d := range wb.Tables {
		injs[i] = d.Inject(dataset.Noise{Rate: cfg.ErrRate, TypoFrac: cfg.WebTypoFrac,
			HardFrac: cfg.WebHardFrac, SwapFallback: true, Seed: cfg.Seed + int64(i)})
	}

	var curves []TimeCurve
	for _, kbName := range dataset.KBNames {
		for _, fast := range []bool{false, true} {
			label := fmt.Sprintf("%s(%s)", repairName(fast), kbName)
			var pts []TimePoint
			for k := 10; k <= len(allRules) && k <= 50; k += 10 {
				chosen := make(map[string]bool, k)
				for _, name := range allRules[:k] {
					chosen[name] = true
				}
				var total time.Duration
				for i, d := range wb.Tables {
					var rs []*rules.DR
					for _, r := range d.Rules {
						if chosen[r.Name] {
							rs = append(rs, r)
						}
					}
					if len(rs) == 0 {
						continue
					}
					e, err := timedEngine(rs, wb.KB(kbName), d.Schema)
					if err != nil {
						return nil, err
					}
					total += timeRepair(e, injs[i], fast, cfg.Repeats)
				}
				pts = append(pts, TimePoint{X: float64(k), Seconds: total.Seconds()})
			}
			curves = append(curves, TimeCurve{Label: label, Points: pts})
		}
	}
	return curves, nil
}

// figure8Rules sweeps 1..len(rules) rule prefixes on one bundle.
func figure8Rules(b *dataset.Bundle, noise dataset.Noise, repeats int) ([]TimeCurve, error) {
	inj := b.Inject(noise)
	var curves []TimeCurve
	for _, kbName := range dataset.KBNames {
		for _, fast := range []bool{false, true} {
			label := fmt.Sprintf("%s(%s)", repairName(fast), kbName)
			var pts []TimePoint
			for k := 1; k <= len(b.Rules); k++ {
				e, err := timedEngine(b.Rules[:k], b.KB(kbName), b.Schema)
				if err != nil {
					return nil, err
				}
				dur := timeRepair(e, inj, fast, repeats)
				pts = append(pts, TimePoint{X: float64(k), Seconds: dur.Seconds()})
			}
			curves = append(curves, TimeCurve{Label: label, Points: pts})
		}
	}
	return curves, nil
}

// Figure8b varies the number of rules on Nobel.
func Figure8b(cfg ExpConfig) ([]TimeCurve, error) {
	b := dataset.NewNobel(cfg.Seed, cfg.NobelTuples)
	return figure8Rules(b, dataset.Noise{Rate: cfg.ErrRate, TypoFrac: cfg.TypoFrac, Seed: cfg.Seed}, cfg.Repeats)
}

// Figure8c varies the number of rules on UIS (paper: 20K tuples).
func Figure8c(cfg ExpConfig) ([]TimeCurve, error) {
	b := dataset.NewUIS(cfg.Seed, cfg.Fig8UISSize)
	return figure8Rules(b, dataset.Noise{Rate: cfg.ErrRate, TypoFrac: cfg.TypoFrac, Seed: cfg.Seed}, cfg.Repeats)
}

// Figure8d varies the number of UIS tuples and compares all systems.
// Unlike 8(a)-(c), KB reading/handling time (engine construction and
// index warm-up) is *included*, matching the paper.
func Figure8d(cfg ExpConfig) ([]TimeCurve, error) {
	labels := []string{
		"bRepair(Yago)", "fRepair(Yago)", "bRepair(DBpedia)", "fRepair(DBpedia)",
		"KATARA(Yago)", "KATARA(DBpedia)", "Llunatic", "constant CFDs",
	}
	curves := make([]TimeCurve, len(labels))
	for i, l := range labels {
		curves[i] = TimeCurve{Label: l}
	}
	for _, n := range cfg.Fig8Tuples {
		b := dataset.NewUIS(cfg.Seed, n)
		inj := b.Inject(dataset.Noise{Rate: cfg.ErrRate, TypoFrac: cfg.TypoFrac, Seed: cfg.Seed})
		x := float64(n)
		// The signature indexes belong to the graph, so fRepair times a
		// second build of the same KBs that bRepair never read: each
		// engine pays for its own index build.
		kbs := map[bool]*dataset.Bundle{false: b, true: dataset.NewUIS(cfg.Seed, n)}

		for _, kbName := range dataset.KBNames {
			for _, fast := range []bool{false, true} {
				start := time.Now()
				e, err := timedEngine(b.Rules, kbs[fast].KB(kbName), b.Schema)
				if err != nil {
					return nil, err
				}
				e.Warm()
				e.RepairTable(inj.Dirty, fast)
				sec := time.Since(start).Seconds()
				pos := posOf(kbName, fast)
				curves[pos].Points = append(curves[pos].Points, TimePoint{X: x, Seconds: sec})
			}
		}
		for _, kbName := range dataset.KBNames {
			start := time.Now()
			s, err := katara.New(b.Pattern, b.KB(kbName), b.Schema)
			if err != nil {
				return nil, err
			}
			s.CleanTable(inj.Dirty)
			sec := time.Since(start).Seconds()
			pos := 4
			if kbName == "DBpedia" {
				pos = 5
			}
			curves[pos].Points = append(curves[pos].Points, TimePoint{X: x, Seconds: sec})
		}
		if r, err := RunLlunatic(&b.Dataset, inj); err != nil {
			return nil, err
		} else {
			curves[6].Points = append(curves[6].Points, TimePoint{X: x, Seconds: r.Duration.Seconds()})
		}
		if r, err := RunCFD(&b.Dataset, inj); err != nil {
			return nil, err
		} else {
			curves[7].Points = append(curves[7].Points, TimePoint{X: x, Seconds: r.Duration.Seconds()})
		}
	}
	return curves, nil
}

func posOf(kbName string, fast bool) int {
	p := 0
	if kbName == "DBpedia" {
		p = 2
	}
	if fast {
		p++
	}
	return p
}

func repairName(fast bool) string {
	if fast {
		return "fRepair"
	}
	return "bRepair"
}
