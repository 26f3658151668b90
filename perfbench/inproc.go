package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync/atomic"
	"time"

	"detective/internal/kb"
	"detective/internal/kb/verify"
	"detective/internal/registry"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/rules"
	"detective/internal/server"
	"detective/internal/similarity"
	"detective/internal/telemetry"
)

// Sizes of the traced run's in-process replays.
const (
	replayRows     = 16000 // rows of request replay per pass
	rulesRows      = 1000  // rows the rules pass evaluates
	lifecycleReps  = 5     // promotions of each kind
	canaryRingRows = 1024  // the server's default recorder ring
	canaryEvery    = 16    // and its default sampling period
	overheadPairs  = 3     // untraced/traced replay pairs timing the span overhead
)

// replay is the traced run: the workload's inputs re-executed
// in-process through each layer's public functions, with a span around
// every call.
type replay struct {
	in     *inputs
	schema *relation.Schema
	warm   []request // replayed untraced first, like the child's warm-up
	reqs   []request // the measured requests (hot tenant's in tenant-churn)
	ring   [][]string
	delta  []byte
	tr     *tracer
	op     int64
}

func newReplay(w *workloadSpec, in *inputs, warmup int, tr *tracer) (*replay, error) {
	rp := &replay{in: in, schema: relation.NewSchema("table", in.attrs...), tr: tr}
	var err error
	if rp.delta, err = os.ReadFile(in.deltaPath); err != nil {
		return nil, err
	}
	seq := in.reqs
	if w.registry {
		seq = nil
		for _, r := range in.reqs {
			if !r.cold {
				seq = append(seq, r)
			}
		}
		warmup = 0
	}
	rp.warm = seq[:warmup]
	for rows, k := 0, warmup; rows < replayRows; k++ {
		r := seq[k%len(seq)]
		rp.reqs = append(rp.reqs, r)
		rows += r.rows
	}
	// The canary replays the last sampled rows of live traffic; sample
	// the request sequence the same way.
	n := 0
	for k := 0; len(rp.ring) < canaryRingRows && k < 64*len(seq); k++ {
		tb, err := relation.ReadCSV("table", bytes.NewReader(seq[k%len(seq)].body))
		if err != nil {
			return nil, err
		}
		for _, t := range tb.Tuples {
			if n++; n%canaryEvery == 0 && len(rp.ring) < canaryRingRows {
				rp.ring = append(rp.ring, t.Values)
			}
		}
	}
	return rp, nil
}

func (rp *replay) nextOp() int64 { rp.op++; return rp.op }

// servingEngine builds an engine the way the server does: memo on,
// default options, a canary recorder, warmed.
func (rp *replay) servingEngine(g *kb.Graph) (*repair.Engine, error) {
	e, err := repair.NewEngineStore(rp.in.rules, kb.NewStore(g), rp.schema, repair.Options{
		Recorder: repair.NewRowRecorder(canaryRingRows, canaryEvery),
	})
	if err != nil {
		return nil, err
	}
	e.Warm()
	return e, nil
}

// loadServing maps the workload's snapshot and freezes it, as the
// child does at start-up.
func (rp *replay) loadServing() (*kb.Graph, error) {
	g, err := kb.LoadSnapshotFile(rp.in.kbPath)
	if err != nil {
		return nil, err
	}
	g.Freeze()
	return g, nil
}

// cleanResult is what one request replay pass did.
type cleanResult struct {
	wall     time.Duration
	rows     int
	repaired int // cells the repair changed
	bad      int // rows quarantined or out of budget
}

// cleanPass replays the warm-up untraced, then the measured requests as
// /clean would run them: decode, repair every row, encode. With the
// tracer on, each request is an operation whose spans are the request
// and one per layer call.
func (rp *replay) cleanPass(e *repair.Engine) (cleanResult, error) {
	var res cleanResult
	dst := &relation.Tuple{Values: make([]string, rp.schema.Arity()), Marked: make([]bool, rp.schema.Arity())}
	run := func(r *request, tr *tracer) error {
		op := rp.nextOp()
		root := tr.begin("clean.request", -1, op)
		s := tr.begin("relation.decode", root, op)
		tb, err := relation.ReadCSV("table", bytes.NewReader(r.body))
		tr.end(s)
		if err != nil {
			return err
		}
		out := &relation.Table{Schema: rp.schema, Tuples: make([]*relation.Tuple, len(tb.Tuples))}
		rows := tr.begin("repair.rows", root, op)
		for i, t := range tb.Tuples {
			s := tr.begin("repair.row", rows, op)
			oc, _ := e.RepairRow(dst, t.Values)
			tr.end(s)
			out.Tuples[i] = dst.Clone()
			if oc != repair.RowRepaired {
				res.bad++
			}
			for j, v := range dst.Values {
				if v != t.Values[j] {
					res.repaired++
				}
			}
		}
		tr.end(rows)
		s = tr.begin("relation.encode", root, op)
		err = out.WriteMarkedCSV(io.Discard)
		tr.end(s)
		tr.end(root)
		res.rows += len(tb.Tuples)
		return err
	}
	off := newTracer(false)
	for i := range rp.warm {
		if err := run(&rp.warm[i], off); err != nil {
			return res, err
		}
	}
	res = cleanResult{}
	start := time.Now()
	for i := range rp.reqs {
		if err := run(&rp.reqs[i], rp.tr); err != nil {
			return res, err
		}
	}
	res.wall = time.Since(start)
	return res, nil
}

// rulesPass times the rule layer's two public entry points on the
// first rulesRows measured rows: every rule's Matcher.EvaluateOn, and
// Catalog.CandidatesOn for every rule node's cell.
func (rp *replay) rulesPass(e *repair.Engine, g *kb.Graph) error {
	var ms []*rules.Matcher
	for _, dr := range rp.in.rules {
		m, err := rules.NewMatcher(dr, e.Cat, rp.schema)
		if err != nil {
			return err
		}
		ms = append(ms, m)
	}
	done := 0
	for k := range rp.reqs {
		tb, err := relation.ReadCSV("table", bytes.NewReader(rp.reqs[k].body))
		if err != nil {
			return err
		}
		for _, t := range tb.Tuples {
			if done++; done > rulesRows {
				return nil
			}
			op := rp.nextOp()
			for _, m := range ms {
				s := rp.tr.begin("rules.evaluate", -1, op)
				m.EvaluateOn(g, t)
				rp.tr.end(s)
				nodes := append(append([]rules.Node(nil), m.Rule.Evidence...), m.Rule.Pos)
				if m.Rule.Neg != nil {
					nodes = append(nodes, *m.Rule.Neg)
				}
				for _, n := range nodes {
					col := rp.schema.Col(n.Col)
					if col < 0 {
						continue
					}
					s := rp.tr.begin("rules.candidates", -1, op)
					e.Cat.CandidatesOn(g, n.Type, n.Sim, t.Values[col])
					rp.tr.end(s)
				}
			}
		}
	}
	return nil
}

// similarityEvals counts similarity evaluations per measured row
// through a match hook, on a fresh serving engine of its own.
func (rp *replay) similarityEvals(g *kb.Graph) (float64, error) {
	e, err := rp.servingEngine(g)
	if err != nil {
		return 0, err
	}
	dst := &relation.Tuple{Values: make([]string, rp.schema.Arity()), Marked: make([]bool, rp.schema.Arity())}
	repairAll := func(reqs []request) (int, error) {
		n := 0
		for k := range reqs {
			tb, err := relation.ReadCSV("table", bytes.NewReader(reqs[k].body))
			if err != nil {
				return 0, err
			}
			for _, t := range tb.Tuples {
				e.RepairRow(dst, t.Values)
				n++
			}
		}
		return n, nil
	}
	if _, err := repairAll(rp.warm); err != nil {
		return 0, err
	}
	var evals atomic.Int64
	prev := similarity.SetMatchHook(func(string) { evals.Add(1) })
	rows, err := repairAll(rp.reqs)
	similarity.SetMatchHook(prev)
	if err != nil || rows == 0 {
		return 0, err
	}
	return float64(evals.Load()) / float64(rows), nil
}

// scratchEngine is the canary's replay engine: memo off, no latency
// sampling, private telemetry.
func (rp *replay) scratchEngine(g *kb.Graph) (*repair.Engine, error) {
	return repair.NewEngineStore(rp.in.rules, kb.NewStore(g), rp.schema, repair.Options{
		MemoDisabled: true, TelemetrySampleEvery: -1, PrivateTelemetry: true,
	})
}

// promotion re-executes one canary promotion of cand over live from
// outside the server: integrity check, shadow replay on two scratch
// engines, and Warm on a fresh engine over the candidate. The caller
// has opened root.
func (rp *replay) promotionTail(root int32, op int64, live, cand *kb.Graph) error {
	s := rp.tr.begin("verify.check", root, op)
	verify.Check(cand, verify.Options{})
	rp.tr.end(s)

	s = rp.tr.begin("repair.replay", root, op)
	le, err := rp.scratchEngine(live)
	if err != nil {
		return err
	}
	ce, err := rp.scratchEngine(cand)
	if err != nil {
		return err
	}
	lo := &relation.Tuple{Values: make([]string, rp.schema.Arity()), Marked: make([]bool, rp.schema.Arity())}
	co := &relation.Tuple{Values: make([]string, rp.schema.Arity()), Marked: make([]bool, rp.schema.Arity())}
	for _, rec := range rp.ring {
		le.RepairRow(lo, rec)
		ce.RepairRow(co, rec)
	}
	rp.tr.end(s)

	we, err := repair.NewEngineStore(rp.in.rules, kb.NewStore(cand), rp.schema, repair.Options{})
	if err != nil {
		return err
	}
	s = rp.tr.begin("repair.warm", root, op)
	we.Warm()
	rp.tr.end(s)
	return nil
}

// promotions runs lifecycleReps full and delta promotions.
func (rp *replay) promotions() error {
	for i := 0; i < lifecycleReps; i++ {
		live, err := rp.loadServing()
		if err != nil {
			return err
		}
		op := rp.nextOp()
		root := rp.tr.begin("promote.full", -1, op)
		s := rp.tr.begin("kb.load", root, op)
		cand, err := kb.LoadSnapshotFile(rp.in.kbPath)
		rp.tr.end(s)
		if err != nil {
			return err
		}
		s = rp.tr.begin("kb.freeze", root, op)
		cand.Freeze()
		rp.tr.end(s)
		if err := rp.promotionTail(root, op, live, cand); err != nil {
			return err
		}
		rp.tr.end(root)

		op = rp.nextOp()
		root = rp.tr.begin("promote.delta", -1, op)
		s = rp.tr.begin("kb.read_delta", root, op)
		d, err := kb.ReadDelta(bytes.NewReader(rp.delta))
		rp.tr.end(s)
		if err != nil {
			return err
		}
		s = rp.tr.begin("kb.apply_delta", root, op)
		cand, err = live.ApplyDelta(d)
		rp.tr.end(s)
		if err != nil {
			return err
		}
		s = rp.tr.begin("kb.freeze_delta", root, op)
		cand.Freeze()
		rp.tr.end(s)
		if err := rp.promotionTail(root, op, live, cand); err != nil {
			return err
		}
		rp.tr.end(root)
	}
	return nil
}

// admissions measures cold tenant admission twice: through a real
// in-process registry (Registry.Tenant on a non-resident tenant), and
// decomposed into the calls an admission makes, followed by one cold
// request on the new engine, which is what admit_ms_p50 times.
func (rp *replay) admissions(w *workloadSpec) error {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := registry.Config{MaxResident: 1}
	paths := rp.in.tenantPaths
	if w.registry {
		cfg.MaxResident = maxResident
	} else {
		paths = []string{rp.in.kbPath, rp.in.kbPath}
	}
	cfg.Defaults.Rules = rp.in.rulesPath
	cfg.Defaults.Schema = rp.in.attrs
	for i, p := range paths {
		cfg.Tenants = append(cfg.Tenants, registry.TenantConfig{Name: tenantName(i), Snapshot: p})
	}
	reg, err := registry.New(cfg, registry.Options{
		Logger: quiet, Metrics: telemetry.NewRegistry(), Server: server.Config{Logger: quiet},
	})
	if err != nil {
		return err
	}
	touch := func(name, span string) error {
		op := rp.nextOp()
		s := rp.tr.begin(span, -1, op)
		_, release, err := reg.Tenant(name)
		rp.tr.end(s)
		if err != nil {
			return err
		}
		release()
		return nil
	}
	// Admit every tenant once first (a first admission also parses the
	// rules, so its span is named apart), then time lifecycleReps+2 cold
	// admissions.
	for i := range paths {
		if err := touch(tenantName(i), "registry.first"); err != nil {
			return err
		}
	}
	for i := 0; i < lifecycleReps+2; i++ {
		if w.registry {
			if err := touch(tenantName(0), "registry.hot"); err != nil {
				return err
			}
			if err := touch(tenantName(1+i%(len(paths)-1)), "registry.admit"); err != nil {
				return err
			}
		} else if err := touch(tenantName(i%2), "registry.admit"); err != nil {
			return err
		}
	}

	var coldReq *request
	for i := range rp.in.reqs {
		if !w.registry || rp.in.reqs[i].cold {
			coldReq = &rp.in.reqs[i]
			break
		}
	}
	dst := &relation.Tuple{Values: make([]string, rp.schema.Arity()), Marked: make([]bool, rp.schema.Arity())}
	for i := 0; i < lifecycleReps; i++ {
		path := paths[len(paths)-1-i%(len(paths)-1)]
		op := rp.nextOp()
		root := rp.tr.begin("admit", -1, op)
		s := rp.tr.begin("kb.load", root, op)
		g, err := kb.LoadSnapshotFile(path)
		rp.tr.end(s)
		if err != nil {
			return err
		}
		s = rp.tr.begin("kb.freeze", root, op)
		g.Freeze()
		rp.tr.end(s)
		s = rp.tr.begin("repair.build", root, op)
		e, err := repair.NewEngineStore(rp.in.rules, kb.NewStore(g), rp.schema, repair.Options{
			Recorder: repair.NewRowRecorder(canaryRingRows, canaryEvery),
		})
		rp.tr.end(s)
		if err != nil {
			return err
		}
		s = rp.tr.begin("repair.warm", root, op)
		e.Warm()
		rp.tr.end(s)
		s = rp.tr.begin("relation.decode", root, op)
		tb, err := relation.ReadCSV("table", bytes.NewReader(coldReq.body))
		rp.tr.end(s)
		if err != nil {
			return err
		}
		out := &relation.Table{Schema: rp.schema}
		s = rp.tr.begin("repair.rows", root, op)
		for _, t := range tb.Tuples {
			e.RepairRow(dst, t.Values)
			out.Tuples = append(out.Tuples, dst.Clone())
		}
		rp.tr.end(s)
		s = rp.tr.begin("relation.encode", root, op)
		err = out.WriteMarkedCSV(io.Discard)
		rp.tr.end(s)
		rp.tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedRun is everything the traced run measured in-process.
type tracedRun struct {
	clean      cleanResult
	overhead   ratio // extra replay time with spans on, over the time with them off (ms)
	simPerRow  float64
	spans      []span
	self       []int64
	rootLayers map[string][]float64 // root span name -> per-op time its children cover, ms
}

// runTraced executes the traced replay: the request replay with spans
// on and off (the tracing overhead), then the rules, similarity,
// promotion and admission passes.
func runTraced(w *workloadSpec, in *inputs, warmup int, spanPath string) (*tracedRun, error) {
	tr := newTracer(true)
	rp, err := newReplay(w, in, warmup, tr)
	if err != nil {
		return nil, err
	}
	out := &tracedRun{}
	g, err := rp.loadServing()
	if err != nil {
		return nil, err
	}
	// Alternate untraced and traced passes, each on a fresh engine; the
	// first traced pass keeps its spans, the others only time the
	// overhead. Pass -1 is discarded: it takes the one-time costs (page
	// faults on the mapped snapshot, heap growth) out of the comparison.
	var offMS, onMS []float64
	for i := -1; i < 2*overheadPairs; i++ {
		on := i >= 0 && i%2 == 1
		e, err := rp.servingEngine(g)
		if err != nil {
			return nil, err
		}
		keep := on && onMS == nil
		rp.tr = newTracer(on)
		if keep {
			rp.tr = tr
		}
		res, err := rp.cleanPass(e)
		if err != nil {
			return nil, err
		}
		ms := float64(res.wall) / 1e6
		if i < 0 {
			continue
		}
		if !on {
			offMS = append(offMS, ms)
			continue
		}
		onMS = append(onMS, ms)
		if keep {
			out.clean = res
			if err := rp.rulesPass(e, g); err != nil {
				return nil, err
			}
		}
	}
	rp.tr = tr
	off := median(offMS)
	out.overhead = ratio{median(onMS) - off, off}
	if out.simPerRow, err = rp.similarityEvals(g); err != nil {
		return nil, err
	}
	if err := rp.promotions(); err != nil {
		return nil, fmt.Errorf("promotions: %w", err)
	}
	if err := rp.admissions(w); err != nil {
		return nil, fmt.Errorf("admissions: %w", err)
	}
	out.spans = tr.spans
	out.self = selfTimes(tr.spans)
	out.rootLayers = map[string][]float64{}
	for i, s := range tr.spans {
		if s.Parent < 0 {
			out.rootLayers[s.Name] = append(out.rootLayers[s.Name], float64(s.End-s.Start-out.self[i])/1e6)
		}
	}
	return out, tr.write(spanPath)
}
