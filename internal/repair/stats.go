package repair

import (
	"fmt"
	"sync/atomic"
)

// Stats is a snapshot of the engine's fault-tolerance counters. The
// engine accumulates them across its whole lifetime; table- and
// stream-level APIs additionally report per-call deltas so a server
// can attach them to one request.
type Stats struct {
	// Repaired counts tuples that completed a repair normally.
	Repaired int64 `json:"repaired"`
	// Quarantined counts tuples whose repair panicked; the original
	// row was emitted unchanged.
	Quarantined int64 `json:"quarantined"`
	// BudgetExhausted counts tuples whose repair exceeded the fixpoint
	// step budget; the original row was emitted unchanged.
	BudgetExhausted int64 `json:"budgetExhausted"`
}

// Add returns the field-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Repaired:        s.Repaired + o.Repaired,
		Quarantined:     s.Quarantined + o.Quarantined,
		BudgetExhausted: s.BudgetExhausted + o.BudgetExhausted,
	}
}

// String renders the snapshot for logs.
func (s Stats) String() string {
	return fmt.Sprintf("repaired=%d quarantined=%d budget-exhausted=%d",
		s.Repaired, s.Quarantined, s.BudgetExhausted)
}

// statsCounters is the engine's live counter set, safe for concurrent
// workers.
type statsCounters struct {
	repaired        atomic.Int64
	quarantined     atomic.Int64
	budgetExhausted atomic.Int64
}

func (c *statsCounters) snapshot() Stats {
	return Stats{
		Repaired:        c.repaired.Load(),
		Quarantined:     c.quarantined.Load(),
		BudgetExhausted: c.budgetExhausted.Load(),
	}
}

// Stats returns a snapshot of the engine's lifetime counters.
func (e *Engine) Stats() Stats { return e.stats.snapshot() }

// tupleOutcome classifies how one per-tuple repair ended.
type tupleOutcome uint8

const (
	tupleOK tupleOutcome = iota
	tupleBudgetExhausted
	tupleQuarantined
)

// count tallies the outcome into the engine's lifetime counters and
// the process-wide telemetry registry.
func (e *Engine) count(oc tupleOutcome) {
	e.instr.outcomes[oc].Inc()
	switch oc {
	case tupleOK:
		e.stats.repaired.Add(1)
	case tupleBudgetExhausted:
		e.stats.budgetExhausted.Add(1)
	case tupleQuarantined:
		e.stats.quarantined.Add(1)
	}
}
