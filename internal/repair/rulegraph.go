// Package repair implements the paper's cleaning algorithms: the
// chase-style basic repair (Algorithm 1), the fast repair with rule
// ordering, signature indexes and shared computation (Algorithm 2),
// and multi-version repairs (§IV-C).
package repair

import (
	"detective/internal/rules"
)

// RuleGraph is the dependency graph of §IV-B(1): an edge ϕ → ϕ'
// whenever col(p) of ϕ appears among the evidence columns of ϕ',
// i.e. applying ϕ may change or certify a value ϕ' relies on, so ϕ
// must be checked first. Applying ϕ also rewrites the fuzzy evidence
// columns it canonicalizes, so there is an edge, too, when ϕ' reads
// such a column through an evidence node of another type or
// similarity. An identical node gets none: it passes or fails its
// evidence check together with ϕ's, and such edges would make the
// paper's and UIS's rule graphs cyclic.
type RuleGraph struct {
	Rules []*rules.DR
	Adj   [][]int // Adj[i]: rules that must be checked after rule i

	// Groups lists strongly connected components in topological order;
	// each group holds rule indexes. Cycles ("circles" in the paper)
	// appear as groups with more than one rule and are re-scanned until
	// stable by the fast repair engine.
	Groups [][]int
}

// BuildRuleGraph constructs the graph and its SCC condensation order.
func BuildRuleGraph(rs []*rules.DR) *RuleGraph {
	g := &RuleGraph{Rules: rs, Adj: make([][]int, len(rs))}
	for i, ri := range rs {
		for j, rj := range rs {
			if i != j && feeds(ri, rj) {
				g.Adj[i] = append(g.Adj[i], j)
			}
		}
	}
	g.Groups = g.sccTopoOrder()
	return g
}

// feeds reports whether applying ri may rewrite or certify a cell that
// rj's evidence reads: ri's positive column, or a column ri
// canonicalizes that rj reads through another node.
func feeds(ri, rj *rules.DR) bool {
	for _, ev := range rj.Evidence {
		if ev.Col == ri.Pos.Col {
			return true
		}
		for _, n := range ri.Evidence {
			if n.Sim.Fuzzy() && n.Col == ev.Col && (n.Type != ev.Type || n.Sim != ev.Sim) {
				return true
			}
		}
	}
	return false
}

// sccTopoOrder returns the strongly connected components of the graph
// in topological order (Tarjan's algorithm emits SCCs in reverse
// topological order; we reverse at the end). Within a component, rule
// indexes keep their original relative order for determinism.
func (g *RuleGraph) sccTopoOrder() [][]int {
	n := len(g.Rules)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	var sccs [][]int
	counter := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.Adj[v] {
			if index[w] == unvisited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			// Keep original rule order inside the component.
			sortInts(comp)
			sccs = append(sccs, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == unvisited {
			strongconnect(v)
		}
	}
	// Tarjan emits reverse topological order.
	for i, j := 0, len(sccs)-1; i < j; i, j = i+1, j-1 {
		sccs[i], sccs[j] = sccs[j], sccs[i]
	}
	return sccs
}

// Order flattens Groups into one topological rule order.
func (g *RuleGraph) Order() []int {
	var out []int
	for _, grp := range g.Groups {
		out = append(out, grp...)
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
