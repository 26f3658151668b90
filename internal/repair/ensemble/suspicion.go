package ensemble

import "sync/atomic"

// DefaultSuspicionPenalty is the multiplicative down-weight applied
// to a KB-backed proposal whose value the KB verifier flagged
// (verify.Report.SuspectNames). Half weight keeps the
// proposal in the vote — corroboration by a second engine can still
// carry it over the threshold — while a lone suspect-backed proposal
// falls below typical thresholds and degrades to a mark.
const DefaultSuspicionPenalty = 0.5

// Suspicion is the dirty-KB self-check signal: the set of node names
// flagged by the KB verifier, with the penalty the vote applies to
// KB-backed proposals of those values. The zero/nil Suspicion
// penalizes nothing.
type Suspicion struct {
	names   map[string]bool
	penalty float64
}

// NewSuspicion builds the signal from flagged node names. penalty <= 0
// selects DefaultSuspicionPenalty.
func NewSuspicion(names []string, penalty float64) *Suspicion {
	if penalty <= 0 {
		penalty = DefaultSuspicionPenalty
	}
	s := &Suspicion{names: make(map[string]bool, len(names)), penalty: penalty}
	for _, n := range names {
		if n != "" {
			s.names[n] = true
		}
	}
	return s
}

// Len returns the number of suspect names.
func (s *Suspicion) Len() int {
	if s == nil {
		return 0
	}
	return len(s.names)
}

// Factor returns the weight multiplier for a KB-backed proposal of
// value: penalty when the value is suspect, 1 otherwise.
func (s *Suspicion) Factor(value string) float64 {
	if s == nil || !s.names[value] {
		return 1
	}
	return s.penalty
}

// SuspicionHolder publishes a Suspicion to concurrent readers; the
// serving path swaps it after each KB verify pass (reload, canary).
type SuspicionHolder struct {
	p atomic.Pointer[Suspicion]
}

// Store publishes s (nil clears the signal).
func (h *SuspicionHolder) Store(s *Suspicion) { h.p.Store(s) }

// Load returns the current signal, possibly nil.
func (h *SuspicionHolder) Load() *Suspicion { return h.p.Load() }
