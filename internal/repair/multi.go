package repair

import (
	"detective/internal/relation"
	"detective/internal/rules"
)

// MaxVersions bounds the number of repair versions tracked per tuple.
// Real rule sets are near-functional (§III-B), so this is defensive;
// when the bound is hit, further multi-version repairs keep only the
// most-similar candidate.
const MaxVersions = 64

// RepairVersions computes every fixpoint of applying the rule set to
// t, following the worklist procedure of §IV-C (Example 10): whenever
// a rule admits k repair versions, the current state forks into k
// branches that each continue with the remaining rules. The returned
// tuples are the distinct fixpoints; the first entry is the one
// BasicRepair/FastRepair would produce (most-similar repairs chosen).
func (e *Engine) RepairVersions(t *relation.Tuple) []*relation.Tuple {
	type state struct {
		t    *relation.Tuple
		used []bool
	}
	g := e.Cat.Graph() // pin: all branches explore one KB
	start := state{t: t.Clone(), used: make([]bool, len(e.fast))}
	work := []state{start}
	var finals []*relation.Tuple
	total := 1 // states in flight or finished

	for len(work) > 0 {
		s := work[0]
		work = work[1:]
		for {
			progress := false
			for i, m := range e.fast {
				if s.used[i] {
					continue
				}
				out := m.VerdictOn(g, s.t)
				if !e.applicable(s.t, i, out) {
					continue
				}
				if out.Kind == rules.Repair && len(out.Repairs) > 1 {
					// Fork one branch per alternative version; the
					// current state continues with version 0.
					for v := 1; v < len(out.Repairs) && total < MaxVersions; v++ {
						branch := state{t: s.t.Clone(), used: append([]bool(nil), s.used...)}
						e.apply(branch.t, i, out, v, nil, false, nil)
						branch.used[i] = true
						work = append(work, branch)
						total++
					}
				}
				e.apply(s.t, i, out, 0, nil, false, nil)
				s.used[i] = true
				progress = true
				break
			}
			if !progress {
				break
			}
		}
		finals = append(finals, s.t)
	}
	return dedupeTuples(finals)
}

// dedupeTuples removes tuples identical in both values and marks,
// keeping first occurrences in order.
func dedupeTuples(ts []*relation.Tuple) []*relation.Tuple {
	var out []*relation.Tuple
	for _, t := range ts {
		dup := false
		for _, u := range out {
			if t.EqualMarked(u) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}
