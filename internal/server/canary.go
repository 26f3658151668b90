package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"detective/internal/kb"
	"detective/internal/kb/verify"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/telemetry"
)

// ErrCanaryRejected wraps every pre-promote rejection of a candidate
// graph — a failed integrity self-check in strict mode, or a shadow
// replay whose bad-row or divergence rate breached the gate. The
// serving graph is untouched in either case.
var ErrCanaryRejected = errors.New("canary rejected")

// CanaryReport describes one staged reload: the integrity self-check
// summary and the shadow-replay comparison that justified promoting or
// rejecting the candidate.
type CanaryReport struct {
	// Verify summarizes the candidate's integrity self-check ("" when
	// the check is off).
	Verify string `json:"verify,omitempty"`
	// VerifyErrors/VerifyWarnings are the self-check finding counts.
	VerifyErrors   int `json:"verifyErrors,omitempty"`
	VerifyWarnings int `json:"verifyWarnings,omitempty"`
	// ReplayedRows is how many recorded rows the shadow replay pushed
	// through scratch engines on the live and candidate graphs.
	ReplayedRows int `json:"replayedRows"`
	// LiveBadRate/CandidateBadRate are the fraction of replayed rows
	// that quarantined or exhausted the step budget on each graph.
	LiveBadRate      float64 `json:"liveBadRate"`
	CandidateBadRate float64 `json:"candidateBadRate"`
	// DivergenceRate is the fraction of replayed rows whose candidate
	// output differed from the live output.
	DivergenceRate float64 `json:"divergenceRate"`
	// Promoted reports whether the candidate was swapped in.
	Promoted bool `json:"promoted"`
	// Reason explains a rejection; empty on promotion.
	Reason string `json:"reason,omitempty"`
}

// StageReloadKB publishes a replacement graph with zero downtime once
// it passes the canary: in-flight tuples finish on the graph they
// pinned at entry, and the generation bump invalidates the caches
// coherently. loadTime is the wall time the caller spent building g
// (0 when unknown). The candidate must pass the integrity self-check
// (Config.VerifyMode) and a shadow replay of recently served rows
// before it is promoted. The replay runs on scratch engines with
// private telemetry, so serving metrics see nothing; the serving
// engine keeps answering requests on the live graph throughout. The
// signature indexes the replay builds stay on the candidate graph, so
// the serving engine reads them after promotion. On
// promotion the displaced graph joins the retention ring for rollback,
// and — when Config.CanaryWatch is set — a watchdog observes the first
// rows served by the new generation and rolls back automatically if
// their bad-row rate breaches the gate. A rejected candidate returns
// an error wrapping ErrCanaryRejected and leaves everything untouched.
func (s *Server) StageReloadKB(g *kb.Graph, loadTime time.Duration) (int64, *CanaryReport, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.stageLocked(g, loadTime)
}

// StageReloadDelta is StageReloadKB for an incremental DKBD delta: the
// delta is applied to the currently served graph — indexes it leaves
// alone are shared, each one it touches is copied with the touched
// lists rewritten — and the resulting candidate
// generation runs the exact same canary pipeline (integrity
// self-check, shadow replay, watchdog) before promotion. A delta whose
// base fingerprint does not match the serving graph returns
// kb.ErrDeltaBaseMismatch without perturbing anything.
func (s *Server) StageReloadDelta(d *kb.Delta) (int64, *CanaryReport, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	g, err := s.store.Graph().ApplyDelta(d)
	if err != nil {
		s.log.Error("kb delta apply failed; keeping current graph", "error", err)
		return 0, nil, err
	}
	applyTime := time.Since(start)
	gen, rep, err := s.stageLocked(g, applyTime)
	if err != nil {
		return gen, rep, err
	}
	s.deltaAppliedTotal.Inc()
	s.deltaTriplesTotal.Add(int64(d.TriplesTouched()))
	s.deltaApplySeconds.Set(applyTime.Seconds())
	s.log.Info("kb delta promoted",
		"generation", gen,
		"ops", d.Ops(),
		"triples_touched", d.TriplesTouched(),
		"apply_seconds", applyTime.Seconds())
	return gen, rep, nil
}

// stageLocked is the canary pipeline body shared by StageReloadKB and
// StageReloadDelta; the caller holds reloadMu.
func (s *Server) stageLocked(g *kb.Graph, loadTime time.Duration) (int64, *CanaryReport, error) {
	s.canaryStagedTotal.Inc()
	rep := &CanaryReport{}

	var vr *verify.Report
	if s.verifyMode != verify.ModeOff {
		vr = verify.Check(g, verify.Options{})
		rep.Verify = vr.Summary()
		rep.VerifyErrors = vr.Errors
		rep.VerifyWarnings = vr.Warnings
		if s.verifyMode.Reject(vr) {
			rep.Reason = "integrity self-check failed: " + vr.Summary()
			s.canaryRejectedTotal.Inc()
			s.log.Error("kb canary rejected candidate", "reason", rep.Reason)
			return 0, rep, fmt.Errorf("%w: %s", ErrCanaryRejected, rep.Reason)
		}
		if vr.Errors > 0 || vr.Warnings > 0 {
			s.log.Warn("kb candidate integrity findings",
				"summary", vr.Summary(),
				"errors", vr.Errors,
				"warnings", vr.Warnings,
				"suspect_nodes", len(vr.SuspectNodes()))
		}
	}

	if err := s.shadowReplay(g, rep); err != nil {
		rep.Reason = err.Error()
		s.canaryRejectedTotal.Inc()
		s.log.Error("kb canary rejected candidate", "reason", rep.Reason)
		return 0, rep, fmt.Errorf("%w: %s", ErrCanaryRejected, rep.Reason)
	}

	// Capture the pre-swap bad-row rate for the watchdog before the new
	// generation starts taking traffic.
	base := s.engine.Stats()
	old := s.store.Swap(g)
	gen := s.store.Generation()
	rep.Promoted = true
	s.reloadTotal.Inc()
	if loadTime > 0 {
		s.loadSeconds.Set(loadTime.Seconds())
	}
	s.log.Info("kb canary promoted",
		"generation", gen,
		"nodes", g.NumNodes(),
		"triples", g.NumTriples(),
		"old_generation", old.Generation(),
		"replayed_rows", rep.ReplayedRows,
		"candidate_bad_rate", rep.CandidateBadRate,
		"live_bad_rate", rep.LiveBadRate,
		"divergence_rate", rep.DivergenceRate,
		"load_seconds", loadTime.Seconds())

	// Promotion refreshes the ensemble's two feedback loops: the
	// dirty-KB suspicion signal for the newly served graph, and the
	// per-engine reliability factors accumulated since the last swap.
	s.applySuspicion(g, vr)
	s.engine.RefreshEnsembleReliability()

	if s.cfg.CanaryWatch > 0 {
		go s.watchCanary(gen, base)
	}
	return gen, rep, nil
}

// scratchEngine builds a throwaway replay engine on g: no memo (every
// replayed row must actually repair), no latency sampling, and a
// private telemetry registry so the serving metrics are unaffected.
func (s *Server) scratchEngine(g *kb.Graph) (*repair.Engine, error) {
	return repair.NewEngineStore(s.rules, kb.NewStore(g), s.schema, repair.Options{
		MemoDisabled:         true,
		TelemetrySampleEvery: -1,
		PrivateTelemetry:     true,
	})
}

// shadowReplay replays the recorded ring of recent input rows through
// scratch engines on the live and candidate graphs and applies the
// canary gates. A nil return means the candidate may be promoted.
func (s *Server) shadowReplay(g *kb.Graph, rep *CanaryReport) error {
	if s.recorder == nil || s.cfg.CanaryRows < 0 {
		return nil
	}
	rows := s.recorder.Snapshot()
	if max := s.cfg.CanaryRows; max > 0 && len(rows) > max {
		rows = rows[len(rows)-max:]
	}
	arity := s.schema.Arity()
	n := 0
	for _, r := range rows {
		if len(r) == arity {
			rows[n] = r
			n++
		}
	}
	rows = rows[:n]
	if len(rows) == 0 {
		return nil
	}

	live, err := s.scratchEngine(s.store.Graph())
	if err != nil {
		return fmt.Errorf("building live replay engine: %v", err)
	}
	cand, err := s.scratchEngine(g)
	if err != nil {
		return fmt.Errorf("building candidate replay engine: %v", err)
	}
	liveOut := &relation.Tuple{Values: make([]string, arity), Marked: make([]bool, arity)}
	candOut := &relation.Tuple{Values: make([]string, arity), Marked: make([]bool, arity)}
	var liveBad, candBad, diverged int
	for _, rec := range rows {
		lo, _ := live.RepairRow(liveOut, rec)
		co, _ := cand.RepairRow(candOut, rec)
		if lo != repair.RowRepaired {
			liveBad++
		}
		if co != repair.RowRepaired {
			candBad++
		}
		if !candOut.EqualMarked(liveOut) {
			diverged++
		}
	}
	total := float64(len(rows))
	rep.ReplayedRows = len(rows)
	rep.LiveBadRate = float64(liveBad) / total
	rep.CandidateBadRate = float64(candBad) / total
	rep.DivergenceRate = float64(diverged) / total

	if rep.CandidateBadRate > rep.LiveBadRate+s.cfg.CanaryMaxBadDelta {
		return fmt.Errorf("shadow replay: candidate bad-row rate %.3f exceeds live %.3f by more than %.3f (%d rows)",
			rep.CandidateBadRate, rep.LiveBadRate, s.cfg.CanaryMaxBadDelta, len(rows))
	}
	if d := s.cfg.CanaryMaxDivergence; d > 0 && rep.DivergenceRate > d {
		return fmt.Errorf("shadow replay: divergence rate %.3f exceeds %.3f (%d rows)",
			rep.DivergenceRate, d, len(rows))
	}
	return nil
}

// watchCanary observes the first rows served by generation gen: if
// their bad-row rate exceeds the pre-swap lifetime rate by the canary
// delta, the generation is rolled back. The generation check makes the
// watchdog self-cancelling — a newer reload or a manual rollback ends
// it silently.
func (s *Server) watchCanary(gen int64, base repair.Stats) {
	preTotal := base.Repaired + base.Quarantined + base.BudgetExhausted
	preBad := base.Quarantined + base.BudgetExhausted
	preRate := 0.0
	if preTotal > 0 {
		preRate = float64(preBad) / float64(preTotal)
	}
	deadline := time.Now().Add(s.cfg.CanaryWatch)
	tick := s.cfg.CanaryWatch / 100
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	for time.Now().Before(deadline) {
		time.Sleep(tick)
		if s.store.Generation() != gen {
			return // superseded or already rolled back
		}
		cur := s.engine.Stats()
		total := (cur.Repaired + cur.Quarantined + cur.BudgetExhausted) - preTotal
		bad := (cur.Quarantined + cur.BudgetExhausted) - preBad
		if total < int64(s.cfg.CanaryWatchMinRows) {
			continue
		}
		rate := float64(bad) / float64(total)
		if rate > preRate+s.cfg.CanaryMaxBadDelta {
			s.log.Error("kb canary watchdog: bad-row rate regressed, rolling back",
				"generation", gen,
				"rows", total,
				"bad_rate", rate,
				"baseline_rate", preRate)
			if _, err := s.rollback(gen, "canary-watchdog"); err != nil {
				s.log.Error("kb canary watchdog rollback failed", "error", err)
				return
			}
			s.canaryRollbackTotal.Inc()
			return
		}
	}
	s.log.Info("kb canary watchdog: generation held", "generation", gen)
}

// RollbackKB republishes the most recently retained graph, displacing
// the currently served one. It returns the generation now being
// served, or an error (kb.ErrNoRetained) when the retention ring is
// empty.
func (s *Server) RollbackKB(reason string) (int64, error) {
	return s.rollback(0, reason)
}

// rollback is RollbackKB with an optional generation guard: when
// expectGen is non-zero the rollback only proceeds while that
// generation is still being served, so a watchdog firing late cannot
// displace an unrelated newer graph.
func (s *Server) rollback(expectGen int64, reason string) (int64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if expectGen != 0 && s.store.Generation() != expectGen {
		return 0, fmt.Errorf("generation %d no longer served", expectGen)
	}
	now, dropped, err := s.store.Rollback()
	if err != nil {
		return 0, err
	}
	s.rollbackTotal.Inc()
	s.refreshSuspicion(now)
	s.log.Warn("kb rolled back",
		"generation", now.Generation(),
		"dropped_generation", dropped.Generation(),
		"reason", reason)
	return now.Generation(), nil
}

// rollbackResponse is the JSON shape of POST /rollback.
type rollbackResponse struct {
	Generation int64        `json:"generation"`
	Rollbacks  int64        `json:"rollbacks"`
	History    []kb.GenInfo `json:"history"`
}

// RollbackHandler returns the admin POST /rollback handler for the ops
// mux: it republishes the most recently retained generation, answering
// 409 when nothing is retained.
func (s *Server) RollbackHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		gen, err := s.RollbackKB("manual: POST /rollback")
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, kb.ErrNoRetained) {
				status = http.StatusConflict
			}
			s.log.Error("kb rollback failed",
				"error", err,
				"request_id", telemetry.RequestID(r.Context()))
			writeError(w, status, "rollback failed: %v", err)
			return
		}
		writeJSON(w, rollbackResponse{
			Generation: gen,
			Rollbacks:  s.store.Rollbacks(),
			History:    s.store.History(),
		})
	})
}
