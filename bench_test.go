// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each BenchmarkTableX/BenchmarkFigureX runs the
// corresponding experiment driver end-to-end at a reduced scale (one
// iteration is a full experiment); use cmd/experiments for the
// presentation-quality runs and -paper-scale for the paper's sizes.
// The per-tuple micro-benchmarks at the bottom isolate the repair
// engines themselves (bRepair vs fRepair — the Figure 8 contrast).
package detective_test

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/eval"
	"detective/internal/katara"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/repair"
)

// benchConfig keeps one experiment iteration small enough for
// `go test -bench=.` while exercising every code path.
func benchConfig() eval.ExpConfig {
	cfg := eval.DefaultConfig()
	cfg.NobelTuples = 300
	cfg.UISTuples = 500
	cfg.Rates = []float64{0.04, 0.12, 0.20}
	cfg.TypoRates = []float64{0, 0.5, 1.0}
	cfg.Fig8Tuples = []int{200, 400}
	cfg.Fig8UISSize = 300
	return cfg
}

func BenchmarkTableII(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rows := eval.TableII(cfg); len(rows) != 6 {
			b.Fatalf("TableII returned %d rows", len(rows))
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := eval.TableIII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("TableIII returned %d rows", len(rows))
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8a(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure8a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8b(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure8b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8c(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure8c(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8d(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure8d(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- per-tuple engine micro-benchmarks -------------------------------

// nobelEngine builds the micro-benchmark engine with the repair memo
// off: these series measure the cold repair kernel, and a warm memo
// would collapse them into cache lookups after the first pass over
// the corpus. BenchmarkFastRepairTupleMemoHit tracks the memoized
// path separately.
func nobelEngine(b *testing.B, n int) (*dataset.Bundle, *dataset.Injected, *repair.Engine) {
	b.Helper()
	bundle := dataset.NewNobel(1, n)
	inj := bundle.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	e, err := repair.NewEngineWithOptions(bundle.Rules, bundle.Yago, bundle.Schema,
		repair.Options{MemoDisabled: true})
	if err != nil {
		b.Fatal(err)
	}
	e.Warm()
	return bundle, inj, e
}

// BenchmarkBRepairTuple vs BenchmarkFastRepairTuple is the per-tuple
// view of Figure 8's bRepair/fRepair gap: the basic algorithm scans
// class extents, the fast one uses the signature indexes, rule
// ordering, evidence checks shared through the row's candidate lists,
// pooled per-tuple state and the cross-tuple candidate cache. BenchmarkFastRepairTuple's
// allocs/op is the number tracked across PRs in BENCH_repair.json
// (see cmd/experiments -bench-repair).
func BenchmarkBRepairTuple(b *testing.B) {
	_, inj, e := nobelEngine(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BasicRepair(inj.Dirty.Tuples[i%inj.Dirty.Len()])
	}
}

func BenchmarkFastRepairTuple(b *testing.B) {
	_, inj, e := nobelEngine(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FastRepair(inj.Dirty.Tuples[i%inj.Dirty.Len()])
	}
}

// BenchmarkFastRepairTupleMemoHit is the warm half of the memo story:
// every iteration replays rows already resident in the tuple tier via
// the allocation-free RepairRow API. The contract tracked across PRs
// is sub-microsecond ns/op and 0 allocs/op.
func BenchmarkFastRepairTupleMemoHit(b *testing.B) {
	bundle := dataset.NewNobel(1, 500)
	inj := bundle.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	e, err := repair.NewEngine(bundle.Rules, bundle.Yago, bundle.Schema)
	if err != nil {
		b.Fatal(err)
	}
	e.Warm()
	recs := make([][]string, inj.Dirty.Len())
	dst := &relation.Tuple{
		Values: make([]string, len(bundle.Schema.Attrs)),
		Marked: make([]bool, len(bundle.Schema.Attrs)),
	}
	for i, t := range inj.Dirty.Tuples {
		recs[i] = t.Values
	}
	// Populate the memo: its doorkeeper admits a row on the second miss.
	for pass := 0; pass < 2; pass++ {
		for _, rec := range recs {
			e.RepairRow(dst, rec)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit := e.RepairRow(dst, recs[i%len(recs)]); !hit {
			b.Fatal("warm repair missed the memo")
		}
	}
}

func BenchmarkRepairVersionsTuple(b *testing.B) {
	_, inj, e := nobelEngine(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RepairVersions(inj.Dirty.Tuples[i%inj.Dirty.Len()])
	}
}

func BenchmarkKATARATuple(b *testing.B) {
	bundle, inj, _ := nobelEngine(b, 500)
	s, err := katara.New(bundle.Pattern, bundle.Yago, bundle.Schema)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Clean(inj.Dirty.Tuples[i%inj.Dirty.Len()])
	}
}

// BenchmarkEngineConstruction times building an engine and its
// signature indexes. The indexes belong to the graph, so each op
// parses and freezes a graph no engine has read yet, with the timer
// stopped.
func BenchmarkEngineConstruction(b *testing.B) {
	bundle := dataset.NewNobel(1, 500)
	var text bytes.Buffer
	if err := bundle.Yago.Encode(&text); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := kb.Parse(bytes.NewReader(text.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		g.Freeze()
		b.StartTimer()
		e, err := repair.NewEngine(bundle.Rules, g, bundle.Schema)
		if err != nil {
			b.Fatal(err)
		}
		e.Warm()
	}
}

// --- ablation benchmarks (the three §IV-B optimizations) -------------

func benchAblation(b *testing.B, opts repair.Options) {
	bundle := dataset.NewUIS(1, 1500)
	inj := bundle.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	opts.MemoDisabled = true // ablations contrast the cold kernel
	e, err := repair.NewEngineWithOptions(bundle.Rules, bundle.Yago, bundle.Schema, opts)
	if err != nil {
		b.Fatal(err)
	}
	e.Warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FastRepair(inj.Dirty.Tuples[i%inj.Dirty.Len()])
	}
}

func BenchmarkAblationFull(b *testing.B)        { benchAblation(b, repair.Options{}) }
func BenchmarkAblationNoRuleOrder(b *testing.B) { benchAblation(b, repair.Options{NoRuleOrder: true}) }
func BenchmarkAblationNoSharedChecks(b *testing.B) {
	benchAblation(b, repair.Options{NoSharedChecks: true})
}
func BenchmarkAblationNoIndexes(b *testing.B) { benchAblation(b, repair.Options{NoIndexes: true}) }

func BenchmarkRepairTableParallel(b *testing.B) {
	bundle := dataset.NewUIS(1, 1500)
	inj := bundle.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	e, err := repair.NewEngineWithOptions(bundle.Rules, bundle.Yago, bundle.Schema,
		repair.Options{MemoDisabled: true})
	if err != nil {
		b.Fatal(err)
	}
	e.Warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RepairTableParallel(inj.Dirty, 0)
	}
}

// BenchmarkCleanCSVStream measures streaming rows/sec on the
// duplicate-heavy bench corpus (each Nobel row repeated in a 1–8 row
// burst) with the repair memo off, so every row is a fresh repair.
// cmd/experiments -bench-repair records it as CleanCSVStreamSerial for
// the CI regression gate (cmd/benchdiff).
func BenchmarkCleanCSVStream(b *testing.B) {
	bundle := dataset.NewNobel(1, 400)
	inj := bundle.Inject(dataset.Noise{Rate: 0.30, TypoFrac: 0.5, Seed: 1})
	benchStream(b, bundle, dataset.DuplicateBursts(inj.Dirty, 1, 16), repair.Options{MemoDisabled: true})
}

// BenchmarkCleanCSVStreamZipf measures streaming rows/sec on a
// Zipf-skewed corpus (s=1.1 over the Nobel dirty rows — the
// head-heavy shape of real dirty feeds) with the global repair memo
// on. Contrast with BenchmarkCleanCSVStream, which runs memo-disabled
// on the duplicate-burst corpus: on the skewed corpus the memo serves
// the hot head from cache, so rows/s should sit well above it.
func BenchmarkCleanCSVStreamZipf(b *testing.B) {
	bundle := dataset.NewNobel(1, 400)
	inj := bundle.Inject(dataset.Noise{Rate: 0.30, TypoFrac: 0.5, Seed: 1})
	benchStream(b, bundle, dataset.ZipfTable(inj.Dirty, 1, 1.1, 8192), repair.Options{})
}

// benchStream streams corpus through a warmed engine built with opts.
func benchStream(b *testing.B, bundle *dataset.Bundle, corpus *relation.Table, opts repair.Options) {
	var buf bytes.Buffer
	if err := corpus.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	input := buf.String()
	e, err := repair.NewEngineWithOptions(bundle.Rules, bundle.Yago, bundle.Schema, opts)
	if err != nil {
		b.Fatal(err)
	}
	e.Warm()
	b.ReportAllocs()
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.CleanCSVStreamContext(context.Background(),
			strings.NewReader(input), io.Discard, true)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows != corpus.Len() {
			b.Fatalf("streamed %d of %d rows", res.Rows, corpus.Len())
		}
	}
	b.ReportMetric(float64(corpus.Len()*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkExtensionPathRule(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.ExtensionPathRule(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
