package repair

import "detective/internal/relation"

// RepairWithOrder runs the chase of Algorithm 1, but scans the rules
// in the given preference order (a permutation of rule indexes) when
// looking for the next applicable rule. Consistency checking uses
// this to explore different application orders; for a consistent rule
// set every order reaches the same fixpoint (the Church-Rosser
// property, §IV-A).
func (e *Engine) RepairWithOrder(t *relation.Tuple, order []int) *relation.Tuple {
	g := e.Cat.Graph() // pin: every order explores one KB
	cl := t.Clone()
	used := make([]bool, len(e.fast))
	for {
		progress := false
		for _, i := range order {
			if used[i] {
				continue
			}
			out := e.fast[i].VerdictOn(g, cl)
			if !e.applicable(cl, i, out) {
				continue
			}
			e.apply(cl, i, out, 0, nil, false, nil)
			used[i] = true
			progress = true
			break
		}
		if !progress {
			return cl
		}
	}
}

// NumRules returns the number of rules in the engine.
func (e *Engine) NumRules() int { return len(e.fast) }
