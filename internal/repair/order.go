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
		i, out := e.nextApplicable(g, cl, e.fast, order, used)
		if i < 0 {
			return cl
		}
		e.apply(cl, i, out, 0, nil, false)
		used[i] = true
	}
}

// NumRules returns the number of rules in the engine.
func (e *Engine) NumRules() int { return len(e.fast) }
