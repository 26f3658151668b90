// Command experiments regenerates every table and figure of the
// paper's evaluation section (§V):
//
//	experiments -exp table2     # Table II  — aligned classes/relations
//	experiments -exp table3     # Table III — DRs vs KATARA accuracy
//	experiments -exp fig6       # Figure 6  — quality vs error rate
//	experiments -exp fig7       # Figure 7  — quality vs typo rate
//	experiments -exp fig8a..d   # Figure 8  — efficiency/scalability
//	experiments -exp all
//
// Sizes default to a reduced scale that finishes quickly; pass
// -paper-scale for the paper's sizes (UIS 100K — the basic repair
// algorithm is deliberately slow there).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"log/slog"

	"detective/internal/dataset"
	"detective/internal/eval"
	"detective/internal/kb"
	"detective/internal/registry"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/repair/ensemble/adapters"
	"detective/internal/rules"
	"detective/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, table2, table3, fig6, fig7, fig8a, fig8b, fig8c, fig8d, ext, ensemble, all")
	paperScale := flag.Bool("paper-scale", false, "use the paper's dataset sizes (slow)")
	seed := flag.Int64("seed", 1, "generator seed")
	uis := flag.Int("uis-tuples", 0, "override UIS tuple count for quality experiments")
	nobel := flag.Int("nobel-tuples", 0, "override Nobel tuple count")
	csvDir := flag.String("csv", "", "also write each experiment's data as CSV into this directory")
	repeats := flag.Int("repeats", 0, "average each timing over this many runs (paper: 6)")
	benchRepair := flag.String("bench-repair", "", "run the repair-engine micro-benchmarks and write the results as JSON to this file (e.g. BENCH_repair.json), then exit")
	flag.Parse()

	if *benchRepair != "" {
		fail(writeRepairBench(*benchRepair))
		return
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
	}
	writeCSV := func(name string, write func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		fail(err)
		defer f.Close()
		fail(write(f))
	}

	cfg := eval.DefaultConfig()
	if *paperScale {
		cfg = eval.PaperScaleConfig()
	}
	cfg.Seed = *seed
	if *uis > 0 {
		cfg.UISTuples = *uis
	}
	if *nobel > 0 {
		cfg.NobelTuples = *nobel
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	any := false

	if run("table1") {
		any = true
		printTableI()
		fmt.Println()
	}
	if run("table2") {
		any = true
		rows := eval.TableII(cfg)
		eval.PrintTableII(os.Stdout, rows)
		writeCSV("table2.csv", func(w *os.File) error { return eval.AlignCSV(w, rows) })
		fmt.Println()
	}
	if run("table3") {
		any = true
		rows, err := eval.TableIII(cfg)
		fail(err)
		eval.PrintTableIII(os.Stdout, rows)
		writeCSV("table3.csv", func(w *os.File) error { return eval.QualityCSV(w, rows) })
		fmt.Println()
	}
	if run("fig6") {
		any = true
		curves, err := eval.Figure6(cfg)
		fail(err)
		eval.PrintCurves(os.Stdout, "FIGURE 6. EFFECTIVENESS (VARYING ERROR RATE)", "err%", curves)
		writeCSV("fig6.csv", func(w *os.File) error { return eval.CurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("fig7") {
		any = true
		curves, err := eval.Figure7(cfg)
		fail(err)
		eval.PrintCurves(os.Stdout, "FIGURE 7. EFFECTIVENESS (VARYING TYPO RATE)", "typo%", curves)
		writeCSV("fig7.csv", func(w *os.File) error { return eval.CurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("fig8a") {
		any = true
		curves, err := eval.Figure8a(cfg)
		fail(err)
		eval.PrintTimeCurves(os.Stdout, "FIGURE 8(a). TIME (WEBTABLES, VARYING #-RULE)", "#-rule", curves)
		writeCSV("fig8a.csv", func(w *os.File) error { return eval.TimeCurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("fig8b") {
		any = true
		curves, err := eval.Figure8b(cfg)
		fail(err)
		eval.PrintTimeCurves(os.Stdout, "FIGURE 8(b). TIME (NOBEL, VARYING #-RULE)", "#-rule", curves)
		writeCSV("fig8b.csv", func(w *os.File) error { return eval.TimeCurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("fig8c") {
		any = true
		curves, err := eval.Figure8c(cfg)
		fail(err)
		eval.PrintTimeCurves(os.Stdout, "FIGURE 8(c). TIME (UIS, VARYING #-RULE)", "#-rule", curves)
		writeCSV("fig8c.csv", func(w *os.File) error { return eval.TimeCurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("fig8d") {
		any = true
		curves, err := eval.Figure8d(cfg)
		fail(err)
		eval.PrintTimeCurves(os.Stdout, "FIGURE 8(d). TIME (UIS, VARYING #-TUPLE)", "#-tuple", curves)
		writeCSV("fig8d.csv", func(w *os.File) error { return eval.TimeCurvesCSV(w, curves) })
		fmt.Println()
	}
	if run("ensemble") {
		any = true
		rows, err := eval.EnsembleTable(cfg)
		fail(err)
		eval.PrintEnsemble(os.Stdout, rows)
		writeCSV("ensemble.csv", func(w *os.File) error { return eval.QualityCSV(w, rows) })
		fmt.Println()
	}
	if run("ext") {
		any = true
		rows, err := eval.ExtensionPathRule(cfg)
		fail(err)
		eval.PrintExtension(os.Stdout, rows)
		writeCSV("extension.csv", func(w *os.File) error { return eval.ExtensionCSV(w, rows) })
		fmt.Println()
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; want one of table1, table2, table3, fig6, fig7, fig8a-d, ext, ensemble, all\n", *exp)
		os.Exit(2)
	}
}

// printTableI replays the paper's running example (Table I) through
// the engine: the four laureate tuples with their errors, cleaned and
// marked.
func printTableI() {
	ex := dataset.NewPaperExample()
	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	fail(err)
	fmt.Println("TABLE I. DATABASE D: NOBEL LAUREATES IN CHEMISTRY (dirty -> cleaned)")
	for i, tu := range ex.Dirty.Tuples {
		fmt.Printf("r%d dirty: %v\n", i+1, tu)
		fmt.Printf("r%d clean: %v\n", i+1, e.FastRepair(tu))
	}
}

// benchResult is one serialized micro-benchmark measurement; the file
// of these written by -bench-repair tracks the repair engine's perf
// trajectory across PRs.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// writeRepairBench times the repair hot paths with testing.Benchmark
// (the same harness `go test -bench` uses) and writes the results as
// JSON, so CI and humans can diff engine performance across commits
// without parsing benchmark text output.
// deltaBenchGraph mirrors internal/kb's benchGraph/churnedGraph pair:
// the Nobel-4000-shaped synthetic KB (4000 persons over 200 cities,
// three facts each) with the first churnedPersons persons edited —
// one edge retargeted, one property value replaced, one edge added.
// The KBApplyDelta* and KBReloadFull series run on this graph so the
// delta-vs-full-reload ratio compares like with like.
func deltaBenchGraph(churnedPersons int) *kb.Graph {
	g := kb.New()
	g.AddSubclass("scientist", "person")
	g.AddSubclass("chemist", "scientist")
	g.AddSubclass("city", "location")
	classes := []string{"person", "scientist", "chemist"}
	for i := 0; i < 200; i++ {
		g.AddType("city-"+strconv.Itoa(i), "city")
	}
	for i := 0; i < 4000; i++ {
		name := "person-" + strconv.Itoa(i)
		g.AddType(name, classes[i%len(classes)])
		if i < churnedPersons {
			g.AddTriple(name, "bornIn", "city-"+strconv.Itoa((i+1)%200))
			g.AddTriple(name, "worksIn", "city-"+strconv.Itoa((i*7)%200))
			g.AddPropertyTriple(name, "bornOnDate", "20"+strconv.Itoa(10+i%90)+"-01-02")
			g.AddTriple(name, "livesIn", "city-"+strconv.Itoa(i%200))
		} else {
			g.AddTriple(name, "bornIn", "city-"+strconv.Itoa(i%200))
			g.AddTriple(name, "worksIn", "city-"+strconv.Itoa((i*7)%200))
			g.AddPropertyTriple(name, "bornOnDate", "19"+strconv.Itoa(10+i%90)+"-01-02")
		}
	}
	return g
}

func writeRepairBench(path string) error {
	// Fail on an unwritable path before spending a minute benchmarking.
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	// The per-tuple and table series run memo-disabled: they track the
	// cold repair kernel, which a warm memo would mask. The memoized
	// path gets its own series (FastRepairTupleMemoHit, CleanCSVStreamZipf*).
	nobel := dataset.NewNobel(1, 500)
	nobelInj := nobel.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	ne, err := repair.NewEngineWithOptions(nobel.Rules, nobel.Yago, nobel.Schema,
		repair.Options{MemoDisabled: true})
	if err != nil {
		return err
	}
	ne.Warm()

	me, err := repair.NewEngine(nobel.Rules, nobel.Yago, nobel.Schema)
	if err != nil {
		return err
	}
	me.Warm()
	memoDst := &relation.Tuple{
		Values: make([]string, len(nobel.Schema.Attrs)),
		Marked: make([]bool, len(nobel.Schema.Attrs)),
	}
	for _, t := range nobelInj.Dirty.Tuples {
		me.RepairRow(memoDst, t.Values) // warm the memo for the hit series
	}

	uis := dataset.NewUIS(1, 1500)
	uisInj := uis.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	ue, err := repair.NewEngineWithOptions(uis.Rules, uis.Yago, uis.Schema,
		repair.Options{MemoDisabled: true})
	if err != nil {
		return err
	}
	ue.Warm()

	record := func(name string, r testing.BenchmarkResult) benchResult {
		return benchResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
	}
	results := []benchResult{
		record("FastRepairTuple", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ne.FastRepair(nobelInj.Dirty.Tuples[i%nobelInj.Dirty.Len()])
			}
		})),
		record("FastRepairTupleMemoHit", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, hit := me.RepairRow(memoDst, nobelInj.Dirty.Tuples[i%nobelInj.Dirty.Len()].Values); !hit {
					b.Fatal("warm repair missed the memo")
				}
			}
		})),
		record("BasicRepairTuple", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ne.BasicRepair(nobelInj.Dirty.Tuples[i%nobelInj.Dirty.Len()])
			}
		})),
		record("RepairTableParallel", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ue.RepairTableParallel(uisInj.Dirty, 0)
			}
		})),
	}

	// Streaming pipeline on the duplicate-heavy corpus: serial baseline
	// and the 8-worker chunked pipeline (same corpus as
	// BenchmarkCleanCSVStreamParallel).
	streamNobel := dataset.NewNobel(1, 400)
	streamInj := streamNobel.Inject(dataset.Noise{Rate: 0.30, TypoFrac: 0.5, Seed: 1})
	corpus := dataset.DuplicateBursts(streamInj.Dirty, 1, 16)
	var cbuf bytes.Buffer
	if err := corpus.WriteCSV(&cbuf); err != nil {
		return err
	}
	input := cbuf.String()
	for _, bench := range []struct {
		name    string
		workers int
	}{{"CleanCSVStreamSerial", 1}, {"CleanCSVStreamParallel8", 8}} {
		se, err := repair.NewEngineWithOptions(streamNobel.Rules, streamNobel.Yago, streamNobel.Schema,
			repair.Options{Workers: bench.workers, MemoDisabled: true})
		if err != nil {
			return err
		}
		se.Warm()
		results = append(results, record(bench.name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := se.CleanCSVStreamContext(context.Background(),
					strings.NewReader(input), io.Discard, true); err != nil {
					b.Fatal(err)
				}
			}
		})))
	}

	// Zipf-skewed corpus with the global memo on: the head-heavy
	// distribution is where cross-request memoization pays, and the
	// serial/8-worker pair shows whether the memo-hit path or the
	// pipeline wins at this skew (same corpus as BenchmarkCleanCSVStreamZipf).
	zipfCorpus := dataset.ZipfTable(streamInj.Dirty, 1, 1.1, 8192)
	var zbuf bytes.Buffer
	if err := zipfCorpus.WriteCSV(&zbuf); err != nil {
		return err
	}
	zinput := zbuf.String()
	for _, bench := range []struct {
		name    string
		workers int
	}{{"CleanCSVStreamZipfSerial", 1}, {"CleanCSVStreamZipf8", 8}} {
		ze, err := repair.NewEngineWithOptions(streamNobel.Rules, streamNobel.Yago, streamNobel.Schema,
			repair.Options{Workers: bench.workers})
		if err != nil {
			return err
		}
		ze.Warm()
		results = append(results, record(bench.name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ze.CleanCSVStreamContext(context.Background(),
					strings.NewReader(zinput), io.Discard, true); err != nil {
					b.Fatal(err)
				}
			}
		})))
	}

	// Ensemble mode: the four-engine weighted vote per tuple
	// (EnsembleTuple4), and the 8-worker streaming pipeline in
	// ensemble mode on the same Zipf corpus as CleanCSVStreamZipf8.
	// The single-engine series above running against an
	// ensemble-capable build is what pins the ensemble-off hot paths.
	ensStore := kb.NewStore(nobel.Yago)
	ee, err := repair.NewEngineStore(nobel.Rules, ensStore, nobel.Schema, repair.Options{
		MemoDisabled: true,
		Ensemble: repair.EnsembleOptions{
			Enabled:   true,
			Proposers: adapters.BuildProposers(nobel.Schema, nobel.Pattern, ensStore, nobelInj.Truth),
		},
	})
	if err != nil {
		return err
	}
	ee.Warm()
	ensDst := &relation.Tuple{
		Values: make([]string, len(nobel.Schema.Attrs)),
		Marked: make([]bool, len(nobel.Schema.Attrs)),
	}
	results = append(results, record("EnsembleTuple4", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ee.RepairRowEnsemble(context.Background(), ensDst, nobelInj.Dirty.Tuples[i%nobelInj.Dirty.Len()].Values)
		}
	})))

	zStore := kb.NewStore(streamNobel.Yago)
	ze8, err := repair.NewEngineStore(streamNobel.Rules, zStore, streamNobel.Schema, repair.Options{
		Workers: 8,
		Ensemble: repair.EnsembleOptions{
			Enabled:   true,
			Proposers: adapters.BuildProposers(streamNobel.Schema, streamNobel.Pattern, zStore, streamInj.Truth),
		},
	})
	if err != nil {
		return err
	}
	ze8.Warm()
	results = append(results, record("CleanCSVStreamEnsemble8", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ze8.CleanCSVStreamEnsembleContext(context.Background(),
				strings.NewReader(zinput), io.Discard, true); err != nil {
				b.Fatal(err)
			}
		}
	})))

	// KB load formats over the same graph: the text parser, the
	// portable decode of the page-aligned DKBS v2 snapshot, and the
	// mmap'd in-place load the registry's tenant cold admissions ride
	// on.
	loadKB := dataset.NewNobel(1, 4000).Yago
	var textBuf, snapBuf bytes.Buffer
	if err := loadKB.Encode(&textBuf); err != nil {
		return err
	}
	if err := loadKB.WriteSnapshotV2(&snapBuf); err != nil {
		return err
	}
	benchDir, err := os.MkdirTemp("", "detective-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(benchDir)
	snapPath := filepath.Join(benchDir, "kb.v2.dkbs")
	if err := os.WriteFile(snapPath, snapBuf.Bytes(), 0o644); err != nil {
		return err
	}
	textSrc, snapSrc := textBuf.Bytes(), snapBuf.Bytes()
	results = append(results,
		record("KBLoadText", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kb.Parse(bytes.NewReader(textSrc)); err != nil {
					b.Fatal(err)
				}
			}
		})),
		record("KBLoadSnapshotV2", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kb.LoadSnapshot(bytes.NewReader(snapSrc)); err != nil {
					b.Fatal(err)
				}
			}
		})),
		record("KBLoadMmap", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kb.LoadSnapshotFile(snapPath); err != nil {
					b.Fatal(err)
				}
			}
		})),
	)

	// Incremental DKBD deltas on the Nobel-4000-shaped synthetic graph
	// (internal/kb's bench pair): KBReloadFull is what a full
	// POST /reload of the same snapshot pays before it serves — mmap
	// plus Freeze, which Store.Swap always runs — and KBApplyDelta* is
	// the copy-on-write apply POST /reload?delta=1 pays at ~1% and
	// ~10% churn. KBApplyDeltaSmall staying ≥10× under KBReloadFull is
	// the headline gated by benchdiff.
	// The engines and registry above stay reachable until here; clear
	// the heap before the load-vs-delta series so GC assist built up
	// by 30s of prior benchmarks doesn't skew either side.
	runtime.GC()
	var deltaSnapBuf bytes.Buffer
	if err := deltaBenchGraph(0).WriteSnapshotV2(&deltaSnapBuf); err != nil {
		return err
	}
	deltaSnapPath := filepath.Join(benchDir, "delta-base.v2.dkbs")
	if err := os.WriteFile(deltaSnapPath, deltaSnapBuf.Bytes(), 0o644); err != nil {
		return err
	}
	results = append(results, record("KBReloadFull", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := kb.LoadSnapshotFile(deltaSnapPath)
			if err != nil {
				b.Fatal(err)
			}
			g.Freeze()
		}
	})))
	deltaBase, err := kb.LoadSnapshotFile(deltaSnapPath)
	if err != nil {
		return err
	}
	deltaBase.Freeze()
	deltaBase.Fingerprint() // pre-warm like a served graph
	for _, dc := range []struct {
		name    string
		churned int
	}{
		{"KBApplyDeltaSmall", 40},
		{"KBApplyDeltaLarge", 400},
	} {
		d := kb.Diff(deltaBase, deltaBenchGraph(dc.churned))
		results = append(results, record(dc.name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := deltaBase.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
			}
		})))
	}

	// Engine warm-up on a cold admission's graph: each op builds a fresh
	// engine over the mmap'd, frozen Nobel-4000 snapshot and runs Warm,
	// which builds every rule class's signature index — the
	// repair.build and repair.warm layers of perfbench's admit trace.
	nobelBench := dataset.NewNobel(1, 4000)
	warmKB, err := kb.LoadSnapshotFile(snapPath)
	if err != nil {
		return err
	}
	warmKB.Freeze()
	results = append(results, record("RepairWarm", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := repair.NewEngineStore(nobelBench.Rules, kb.NewStore(warmKB), nobelBench.Schema, repair.Options{})
			if err != nil {
				b.Fatal(err)
			}
			e.Warm()
		}
	})))

	// Tenant cold admission, end to end: two tenants thrash a
	// residency cap of 1, so every resolve is a full cold admission —
	// mmap the snapshot, build the engine, evict the previous tenant.
	// This is the registry's worst-case request and the price of
	// configuring far more tenants than the cap.
	rulesPath := filepath.Join(benchDir, "rules.dr")
	rfile, err := os.Create(rulesPath)
	if err != nil {
		return err
	}
	if err := rules.EncodeRules(rfile, nobelBench.Rules); err != nil {
		rfile.Close()
		return err
	}
	if err := rfile.Close(); err != nil {
		return err
	}
	reg, err := registry.New(registry.Config{
		MaxResident: 1,
		Defaults: registry.TenantConfig{
			Snapshot: snapPath,
			Rules:    rulesPath,
			Schema:   nobelBench.Schema.Attrs,
			Relation: nobelBench.Schema.Name,
		},
		Tenants: []registry.TenantConfig{{Name: "a"}, {Name: "b"}},
	}, registry.Options{
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics: telemetry.NewRegistry(),
	})
	if err != nil {
		return err
	}
	coldNames := [2]string{"a", "b"}
	results = append(results,
		record("TenantColdAdmission", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, release, err := reg.Tenant(coldNames[i%2])
				if err != nil {
					b.Fatal(err)
				}
				release()
			}
		})),
	)

	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Benchmarks []benchResult `json:"benchmarks"`
	}{results}); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-20s %12.0f ns/op %8d B/op %6d allocs/op\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
