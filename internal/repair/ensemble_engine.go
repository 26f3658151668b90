// Serving-path ensemble repair: the detective engine runs alongside
// the auxiliary proposers (KATARA, FD, constant CFD — see
// internal/repair/ensemble) on every tuple, their cell-level
// proposals are combined by a weighted vote, and each decided cell
// carries a confidence score. Cells whose winning value falls below
// the acceptance threshold degrade to detect-only marks. The ensemble
// path shares the engine's breaker, recorder, telemetry, and global
// memo (under salted keys, so ensemble and single-engine results
// never cross-contaminate).
package repair

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/repair/ensemble"
	"detective/internal/telemetry"
)

// EnsembleOptions configures the engine's ensemble mode (see
// Options.Ensemble). The detective engine itself is always the first
// voter; Proposers supplies the auxiliary engines.
type EnsembleOptions struct {
	// Enabled builds the ensemble state. When false the engine pays a
	// single nil check and the ensemble entry points error.
	Enabled bool
	// Threshold is the acceptance threshold on a winning value's
	// confidence; below it the cell is marked but not rewritten.
	// 0 picks ensemble.DefaultThreshold.
	Threshold float64
	// Weights overrides per-engine base weights by engine name
	// ("detective", "katara", "llunatic", "cfd"). Engines absent here
	// fall back to ensemble.DefaultWeights.
	Weights map[string]float64
	// Proposers are the auxiliary engines. They must be safe for
	// concurrent use; each Propose call is panic-quarantined.
	Proposers []ensemble.Proposer
	// SuspicionPenalty is the down-weight applied to KB-backed
	// proposals of values flagged by the KB self-check. 0 picks
	// ensemble.DefaultSuspicionPenalty.
	SuspicionPenalty float64
}

// ensembleFPSalt separates ensemble memo keys from single-engine
// keys: the tuple fingerprint is fully avalanched, so XOR with any
// non-zero constant yields an independent key space.
const ensembleFPSalt = 0x9E3779B97F4A7C15

// detectiveEngine is engine index 0 in every per-tuple vote.
const detectiveEngine = 0

// relPrior* shape the reliability estimate: a Beta(4,4)-style prior
// so early shadow-replay samples cannot swing an engine's weight, and
// a floor so no engine is silenced entirely (it can still corroborate).
const (
	relPriorAgree = 4
	relPriorTotal = 8
	relFloor      = 0.25
)

// ensembleState is everything the per-tuple ensemble path reads. It
// is immutable after construction except for the atomics (suspicion
// pointer, reliability factors, agreement counters).
type ensembleState struct {
	proposers []ensemble.Proposer
	names     []string  // engine names; index 0 is "detective"
	baseW     []float64 // configured base weight per engine
	threshold float64

	suspicion ensemble.SuspicionHolder
	penalty   float64

	// rel[i] is engine i's current reliability factor in [relFloor, 1]
	// (math.Float64bits), refreshed from the agree/total counters by
	// RefreshEnsembleReliability after canary shadow replays.
	rel   []atomic.Uint64
	agree []atomic.Int64
	total []atomic.Int64

	instr *ensembleInstr
}

// ensembleInstr is the ensemble's per-engine counter block, one
// labelled series per engine per event.
type ensembleInstr struct {
	proposals   []*telemetry.Counter
	conflicts   []*telemetry.Counter
	accepted    []*telemetry.Counter
	below       []*telemetry.Counter
	quarantined []*telemetry.Counter
}

func newEnsembleInstr(reg *telemetry.Registry, names []string) *ensembleInstr {
	in := &ensembleInstr{}
	mk := func(dst *[]*telemetry.Counter, name, help string) {
		for _, eng := range names {
			*dst = append(*dst, reg.Counter(name, help, telemetry.Label{Name: "engine", Value: eng}))
		}
	}
	mk(&in.proposals, "detective_ensemble_proposals_total", "Cell repair proposals emitted by each ensemble engine.")
	mk(&in.conflicts, "detective_ensemble_conflicts_total", "Cells where this engine participated in a multi-value conflict.")
	mk(&in.accepted, "detective_ensemble_accepted_total", "Cells where this engine backed the accepted winning value.")
	mk(&in.below, "detective_ensemble_below_threshold_total", "Cells where this engine backed a winner that fell below the acceptance threshold.")
	mk(&in.quarantined, "detective_ensemble_quarantined_total", "Per-tuple engine quarantines (panicking Propose calls).")
	return in
}

func newEnsembleState(opts EnsembleOptions, reg *telemetry.Registry) *ensembleState {
	names := make([]string, 1+len(opts.Proposers))
	names[detectiveEngine] = "detective"
	for i, p := range opts.Proposers {
		names[1+i] = p.Name()
	}
	es := &ensembleState{
		proposers: opts.Proposers,
		names:     names,
		baseW:     make([]float64, len(names)),
		threshold: opts.Threshold,
		penalty:   opts.SuspicionPenalty,
		rel:       make([]atomic.Uint64, len(names)),
		agree:     make([]atomic.Int64, len(names)),
		total:     make([]atomic.Int64, len(names)),
	}
	if es.threshold <= 0 {
		es.threshold = ensemble.DefaultThreshold
	}
	if es.penalty <= 0 {
		es.penalty = ensemble.DefaultSuspicionPenalty
	}
	for i, n := range names {
		es.baseW[i] = ensemble.WeightFor(opts.Weights, n)
		es.rel[i].Store(math.Float64bits(1))
	}
	es.instr = newEnsembleInstr(reg, names)
	return es
}

// EnsembleEnabled reports whether the engine was built with ensemble
// mode on.
func (e *Engine) EnsembleEnabled() bool { return e.ens != nil }

// EnsembleThreshold returns the acceptance threshold (0 when ensemble
// mode is off).
func (e *Engine) EnsembleThreshold() float64 {
	if e.ens == nil {
		return 0
	}
	return e.ens.threshold
}

// SetEnsembleSuspicion publishes the KB self-check suspicion signal
// consumed by subsequent ensemble votes; nil clears it. No-op when
// ensemble mode is off.
func (e *Engine) SetEnsembleSuspicion(s *ensemble.Suspicion) {
	if e.ens != nil {
		e.ens.suspicion.Store(s)
	}
}

// RefreshEnsembleReliability folds the accumulated per-engine
// agreement counters (proposal matched the accepted winner) into each
// engine's reliability factor. The estimate is prior-smoothed and
// floored so a cold or briefly-wrong engine is damped, not silenced.
// The server calls this after each successful canary shadow replay.
func (e *Engine) RefreshEnsembleReliability() {
	es := e.ens
	if es == nil {
		return
	}
	for i := range es.rel {
		agree, total := es.agree[i].Load(), es.total[i].Load()
		rel := relFloor + (1-relFloor)*float64(agree+relPriorAgree)/float64(total+relPriorTotal)
		if rel > 1 {
			rel = 1
		}
		es.rel[i].Store(math.Float64bits(rel))
	}
}

// EnsembleReliability snapshots each engine's current reliability
// factor by name; nil when ensemble mode is off.
func (e *Engine) EnsembleReliability() map[string]float64 {
	es := e.ens
	if es == nil {
		return nil
	}
	out := make(map[string]float64, len(es.names))
	for i, n := range es.names {
		out[n] = math.Float64frombits(es.rel[i].Load())
	}
	return out
}

// drLeg runs the detective leg of the ensemble on tup (which holds a
// fresh copy of the input record): the ordinary fast repair in place,
// panic-quarantined and breaker-observed, its outcome counted into
// the engine's lifetime counters exactly once. On a non-OK outcome
// tup is restored to the original record.
func (e *Engine) drLeg(g *kb.Graph, tup *relation.Tuple, rec []string, probe bool) tupleOutcome {
	oc := e.repairRowSafeOn(g, tup, probe)
	if oc != tupleOK {
		copyRecInto(tup, rec)
	}
	return oc
}

// ensembleRowOn is the uncached ensemble core for one unmarked input
// record. The auxiliary proposers run concurrently with the detective
// leg; the weighted vote then settles every contested cell into tup,
// whose Values/Marked must have the schema's arity. It returns the
// detective leg's outcome (the row-level degradation verdict) and the
// row confidence — the minimum winning confidence over decided cells,
// 1 when no cell was contested.
func (e *Engine) ensembleRowOn(ctx context.Context, g *kb.Graph, tup *relation.Tuple, rec []string, probe bool) (tupleOutcome, float64) {
	es := e.ens
	n := 1 + len(es.proposers)
	byEngine := make([][]ensemble.Proposal, n)

	var wg sync.WaitGroup
	for i, p := range es.proposers {
		wg.Add(1)
		go func(slot int, p ensemble.Proposer) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// Quarantine this engine for this tuple only: its
					// proposals are dropped, every other voter proceeds.
					byEngine[slot] = nil
					es.instr.quarantined[slot].Inc()
				}
			}()
			byEngine[slot] = p.Propose(ctx, rec, nil)
		}(1+i, p)
	}

	copyRecInto(tup, rec)
	oc := e.drLeg(g, tup, rec, probe)

	// The detective leg's proposals are the cells it rewrote; cells it
	// marked without rewriting are proven correct and removed from the
	// vote entirely (no engine second-guesses a positive annotation).
	var proven []bool
	if oc == tupleOK {
		var drProps []ensemble.Proposal
		for col, v := range tup.Values {
			if v != rec[col] {
				drProps = append(drProps, ensemble.Proposal{Col: col, Value: v, Conf: 1, KB: true})
			} else if tup.Marked[col] {
				if proven == nil {
					proven = make([]bool, len(rec))
				}
				proven[col] = true
			}
		}
		byEngine[detectiveEngine] = drProps
	}
	wg.Wait()

	weights := make([]float64, n)
	for i := range weights {
		weights[i] = es.baseW[i] * math.Float64frombits(es.rel[i].Load())
	}
	for i, props := range byEngine {
		if len(props) > 0 {
			es.instr.proposals[i].Add(int64(len(props)))
		}
	}
	var suspect func(string) float64
	if s := es.suspicion.Load(); s.Len() > 0 {
		suspect = s.Factor
	}
	decisions := ensemble.Vote(byEngine, weights, proven, suspect)

	rowConf := 1.0
	for _, d := range decisions {
		accepted := d.Conf >= es.threshold
		if accepted {
			tup.Values[d.Col] = d.Value
			tup.Marked[d.Col] = true
		} else {
			// Below threshold: degrade the cell to a detect-only mark —
			// the original value stays, flagged for the caller.
			tup.Values[d.Col] = rec[d.Col]
			tup.Marked[d.Col] = true
		}
		if d.Conf < rowConf {
			rowConf = d.Conf
		}
		for _, ei := range d.Participants {
			es.total[ei].Add(1)
			if d.Conflict {
				es.instr.conflicts[ei].Inc()
			}
		}
		for _, ei := range d.Backers {
			if accepted {
				es.agree[ei].Add(1)
				es.instr.accepted[ei].Inc()
			} else {
				es.instr.below[ei].Inc()
			}
		}
	}
	return oc, rowConf
}

// repairRowEnsembleMemo is the ensemble analogue of repairRowMemo:
// recorder, breaker fronting, then the global memo (under salted keys
// carrying the row confidence) read-through around ensembleRowOn. tup
// is left holding the row to emit; rec must be an unmarked input row,
// and the memo may keep its strings (see putTuple).
func (e *Engine) repairRowEnsembleMemo(ctx context.Context, tup *relation.Tuple, rec []string) (tupleOutcome, float64, bool) {
	if rr := e.recorder; rr != nil {
		rr.Record(rec)
	}
	g := e.Cat.Graph()
	degrade, probe := e.breakerAdmit()
	if degrade {
		copyRecInto(tup, rec)
		oc := e.detectOnlyRowOn(g, tup)
		if oc != tupleOK {
			copyRecInto(tup, rec)
		}
		return oc, 1, false
	}
	memo := e.memo
	if memo == nil {
		oc, conf := e.ensembleRowOn(ctx, g, tup, rec, probe)
		return oc, conf, false
	}
	gen := g.Generation()
	fp := memo.tupleFP(rec, nil) ^ ensembleFPSalt
	if !probe {
		if oc, conf, ok := memo.getRowInto(gen, fp, rec, tup); ok {
			e.count(oc)
			return oc, conf, true
		}
	}
	oc, conf := e.ensembleRowOn(ctx, g, tup, rec, probe)
	memo.putTuple(gen, fp, rec, nil, tup, oc, conf)
	return oc, conf, false
}

// RepairTableEnsemble runs the ensemble over every tuple of tb
// (unmarked input) and returns the repaired copy together with the
// per-row confidences. It errors after a context cancellation with a
// *PartialError; rows not reached pass through unchanged.
func (e *Engine) RepairTableEnsemble(ctx context.Context, tb *relation.Table) (*relation.Table, []float64, error) {
	out := &relation.Table{Schema: tb.Schema, Tuples: make([]*relation.Tuple, tb.Len())}
	confs := make([]float64, tb.Len())
	arity := e.Schema.Arity()
	done := 0
	for i, t := range tb.Tuples {
		if err := ctx.Err(); err != nil {
			for j := i; j < tb.Len(); j++ {
				out.Tuples[j] = tb.Tuples[j].Clone()
				confs[j] = 1
			}
			return out, confs, &PartialError{Done: done, Err: err}
		}
		tup := &relation.Tuple{Values: make([]string, arity), Marked: make([]bool, arity)}
		_, conf, _ := e.repairRowEnsembleMemo(ctx, tup, t.Values)
		out.Tuples[i] = tup
		confs[i] = conf
		done++
	}
	return out, confs, nil
}

// RepairRowEnsemble is RepairRow in ensemble mode: rec is repaired
// into dst (whose Values and Marked must have the schema's arity) by
// the weighted vote, returning the outcome, the row confidence, and
// whether the global memo served the row. The engine must have been
// built with Options.Ensemble.Enabled.
func (e *Engine) RepairRowEnsemble(ctx context.Context, dst *relation.Tuple, rec []string) (RowOutcome, float64, bool) {
	oc, conf, hit := e.repairRowEnsembleMemo(ctx, dst, rec)
	return RowOutcome(oc), conf, hit
}
