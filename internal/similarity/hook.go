package similarity

import "sync/atomic"

// MatchHook observes every similarity evaluation: q is the query
// string (typically a tuple cell value) being matched or looked up.
// Hooks exist for fault injection in tests — a hook that panics on a
// trigger value simulates a poisoned row deep inside the matching
// kernels — and must be cheap: they run on the repair hot path.
type MatchHook func(q string)

// matchHook is read on every Observe call; an atomic pointer keeps
// installation race-free under -race while costing a single relaxed
// load when no hook is installed.
var matchHook atomic.Pointer[MatchHook]

// SetMatchHook installs h as the process-wide match hook; nil removes
// it. It returns the previous hook so tests can restore it.
func SetMatchHook(h MatchHook) MatchHook {
	var prev *MatchHook
	if h == nil {
		prev = matchHook.Swap(nil)
	} else {
		prev = matchHook.Swap(&h)
	}
	if prev == nil {
		return nil
	}
	return *prev
}

// Observe invokes the installed hook, if any, with the query string.
// Spec.Match and StringIndex.Lookup call it, and so must any retrieval
// that matches a query without them (an exact node's name-table
// lookup), so a hook sees every query the matching kernels see.
func Observe(q string) {
	if h := matchHook.Load(); h != nil {
		(*h)(q)
	}
}
