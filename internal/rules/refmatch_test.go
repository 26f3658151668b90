package rules

import (
	"sort"

	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/similarity"
)

// RefMatcher is the map-based evaluator that the slot-addressed Matcher
// replaced, kept as the reference the Matcher must agree with exactly:
// the same Outcome, field for field, witness included. Assignments are
// maps from node name to instance, candidate sets are maps, and every
// call rebuilds its name-to-position table, as the original did.
type RefMatcher struct {
	Rule   *DR
	Cat    *Catalog
	Schema *relation.Schema
	Scan   bool

	posNodes    []Node
	posEdges    []Edge
	negNodes    []Node
	negEdges    []Edge
	evEdges     []Edge
	posIncident []Edge
	negIncident []Edge
	markCols    []string
	posCol      int
}

type refAssignment map[string]kb.ID

func (a refAssignment) clone() refAssignment {
	out := make(refAssignment, len(a)+1)
	for k, v := range a {
		out[k] = v
	}
	return out
}

// NewRefMatcher builds the reference evaluator for the same rule,
// catalog, schema and retrieval mode as m.
func NewRefMatcher(m *Matcher) *RefMatcher {
	rule := m.Rule
	r := &RefMatcher{Rule: rule, Cat: m.Cat, Schema: m.Schema, Scan: m.Scan}
	pg := rule.positiveGraph()
	r.posNodes, r.posEdges = pg.Nodes, pg.Edges
	if ng, ok := rule.negativeGraph(); ok {
		r.negNodes, r.negEdges = ng.Nodes, ng.Edges
	}
	r.evEdges = rule.evidenceEdges()
	r.posIncident = rule.posEdges()
	r.negIncident = rule.negEdges()
	r.markCols = append(rule.EvidenceCols(), rule.Pos.Col)
	r.posCol = m.Schema.MustCol(rule.Pos.Col)
	return r
}

func refFindAssignments(g *kb.Graph, cat *Catalog, schema *relation.Schema, t *relation.Tuple,
	nodes []Node, edges []Edge, limit int, scan bool) []refAssignment {

	cands := make([][]kb.ID, len(nodes))
	var bound, lazy []int
	for i, n := range nodes {
		if n.Col == "" {
			lazy = append(lazy, i)
			continue
		}
		col := schema.Col(n.Col)
		if col < 0 {
			return nil
		}
		cands[i] = cat.LookupOn(g, n.Type, n.Sim, t.Values[col], scan)
		if len(cands[i]) == 0 {
			return nil
		}
		bound = append(bound, i)
	}
	if len(bound) == 0 && len(lazy) > 0 {
		return nil
	}

	sort.Slice(bound, func(a, b int) bool { return len(cands[bound[a]]) < len(cands[bound[b]]) })
	order, ok := refAttachLazy(nodes, edges, bound, lazy)
	if !ok {
		return nil
	}

	pos := make(map[string]int, len(nodes))
	for i, n := range nodes {
		pos[n.Name] = i
	}

	var out []refAssignment
	cur := make(refAssignment, len(nodes))

	var rec func(step int) bool
	rec = func(step int) bool {
		if step == len(order) {
			out = append(out, cur.clone())
			return limit > 0 && len(out) >= limit
		}
		ni := order[step]
		node := nodes[ni]
		options := cands[ni]
		if node.Col == "" {
			options = refLazyCandidates(g, nodes, edges, cur, ni)
		}
	candidates:
		for _, inst := range options {
			for _, e := range edges {
				fi, ok1 := pos[e.From]
				ti, ok2 := pos[e.To]
				if !ok1 || !ok2 {
					continue
				}
				if fi != ni && ti != ni {
					continue
				}
				var from, to kb.ID
				if fi == ni {
					from = inst
					v, bound := cur[e.To]
					if !bound {
						continue
					}
					to = v
				} else {
					to = inst
					v, bound := cur[e.From]
					if !bound {
						continue
					}
					from = v
				}
				rel := g.Lookup(e.Rel)
				if rel == kb.Invalid || !g.HasEdge(from, rel, to) {
					continue candidates
				}
			}
			cur[node.Name] = inst
			if rec(step + 1) {
				return true
			}
			delete(cur, node.Name)
		}
		return false
	}
	rec(0)
	return out
}

func refAttachLazy(nodes []Node, edges []Edge, bound, lazy []int) ([]int, bool) {
	order := append([]int(nil), bound...)
	placed := make(map[string]bool, len(nodes))
	for _, i := range bound {
		placed[nodes[i].Name] = true
	}
	remaining := append([]int(nil), lazy...)
	for len(remaining) > 0 {
		progress := false
		for k, i := range remaining {
			name := nodes[i].Name
			attached := false
			for _, e := range edges {
				if e.From == name && placed[e.To] || e.To == name && placed[e.From] {
					attached = true
					break
				}
			}
			if attached {
				order = append(order, i)
				placed[name] = true
				remaining = append(remaining[:k], remaining[k+1:]...)
				progress = true
				break
			}
		}
		if !progress {
			return nil, false
		}
	}
	return order, true
}

func refLazyCandidates(g *kb.Graph, nodes []Node, edges []Edge, cur refAssignment, ni int) []kb.ID {
	node := nodes[ni]
	cls := g.Lookup(node.Type)
	if cls == kb.Invalid {
		return nil
	}
	var result map[kb.ID]bool
	for _, e := range edges {
		var neigh []kb.ID
		switch {
		case e.From == node.Name:
			o, bound := cur[e.To]
			if !bound {
				continue
			}
			rel := g.Lookup(e.Rel)
			if rel == kb.Invalid {
				return nil
			}
			neigh = g.Subjects(rel, o)
		case e.To == node.Name:
			o, bound := cur[e.From]
			if !bound {
				continue
			}
			rel := g.Lookup(e.Rel)
			if rel == kb.Invalid {
				return nil
			}
			neigh = g.Objects(o, rel)
		default:
			continue
		}
		set := make(map[kb.ID]bool, len(neigh))
		for _, x := range neigh {
			if !g.HasType(x, cls) {
				continue
			}
			if result == nil || result[x] {
				set[x] = true
			}
		}
		result = set
		if len(result) == 0 {
			return nil
		}
	}
	if result == nil {
		return nil
	}
	out := make([]kb.ID, 0, len(result))
	for x := range result {
		out = append(out, x)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// EvaluateOn is the reference verdict of the rule on t against g.
func (m *RefMatcher) EvaluateOn(g *kb.Graph, t *relation.Tuple) Outcome {
	if !m.Scan && len(m.Rule.Evidence) > 0 {
		return m.evaluateEdgeDriven(g, t)
	}
	return m.evaluateValueDriven(g, t)
}

func (m *RefMatcher) evaluateEdgeDriven(g *kb.Graph, t *relation.Tuple) Outcome {
	evAs := refFindAssignments(g, m.Cat, m.Schema, t, m.Rule.Evidence, m.evEdges, assignmentCap, false)
	if len(evAs) == 0 {
		return Outcome{Kind: NoMatch}
	}
	value := t.Values[m.posCol]

	var exactAs, fuzzyAs []refAssignment
	fuzzyNames := make(map[string]bool)
	posCands := make([][]kb.ID, len(evAs))
	for i, a := range evAs {
		posCands[i] = m.poleCandidates(g, a, m.posNodes, m.posEdges, m.Rule.Pos, m.posIncident)
		exact := false
		for _, xp := range posCands[i] {
			name := g.Name(xp)
			if !m.Rule.Pos.Sim.Match(value, name) {
				continue
			}
			if name == value {
				exact = true
			} else {
				fuzzyNames[name] = true
			}
		}
		if exact {
			exactAs = append(exactAs, a)
		} else if len(fuzzyNames) > 0 {
			fuzzyAs = append(fuzzyAs, a)
		}
	}
	if len(exactAs) > 0 {
		return Outcome{Kind: Positive, MarkCols: m.markCols,
			Canonical: m.canonicalEvidence(g, t, exactAs), Witness: m.witness(g, exactAs[0], nil)}
	}
	if len(fuzzyNames) > 0 {
		repairs := make([]string, 0, len(fuzzyNames))
		for v := range fuzzyNames {
			repairs = append(repairs, v)
		}
		refSortRepairs(value, repairs)
		return Outcome{Kind: Repair, MarkCols: m.markCols, RepairCol: m.Rule.Pos.Col,
			Repairs: repairs, Canonical: m.canonicalEvidence(g, t, fuzzyAs),
			Witness: m.witness(g, fuzzyAs[0], nil)}
	}

	if m.Rule.Neg == nil {
		return Outcome{Kind: NoMatch}
	}
	repairSet := make(map[string]bool)
	var negAs []refAssignment
	var witness map[string]string
	for i, a := range evAs {
		xns := make(map[kb.ID]bool)
		var firstXn kb.ID = kb.Invalid
		for _, xn := range m.poleCandidates(g, a, m.negNodes, m.negEdges, *m.Rule.Neg, m.negIncident) {
			if m.Rule.Neg.Sim.Match(value, g.Name(xn)) {
				xns[xn] = true
				if firstXn == kb.Invalid {
					firstXn = xn
				}
			}
		}
		if len(xns) == 0 {
			continue
		}
		negAs = append(negAs, a)
		repaired := false
		for _, xp := range posCands[i] {
			if xns[xp] {
				continue
			}
			repairSet[g.Name(xp)] = true
			repaired = true
		}
		if repaired && witness == nil {
			witness = m.witness(g, a, map[string]kb.ID{m.Rule.Neg.Name: firstXn})
		}
	}
	if len(repairSet) == 0 {
		return Outcome{Kind: NoMatch}
	}
	repairs := make([]string, 0, len(repairSet))
	for v := range repairSet {
		repairs = append(repairs, v)
	}
	refSortRepairs(value, repairs)
	return Outcome{Kind: Repair, MarkCols: m.markCols, RepairCol: m.Rule.Pos.Col,
		Repairs: repairs, Canonical: m.canonicalEvidence(g, t, negAs), Witness: witness}
}

func (m *RefMatcher) witness(g *kb.Graph, a refAssignment, extra map[string]kb.ID) map[string]string {
	out := make(map[string]string, len(a)+len(extra))
	for name, inst := range a {
		out[name] = g.Name(inst)
	}
	for name, inst := range extra {
		if inst != kb.Invalid {
			out[name] = g.Name(inst)
		}
	}
	return out
}

func (m *RefMatcher) evaluateValueDriven(g *kb.Graph, t *relation.Tuple) Outcome {
	if as := refFindAssignments(g, m.Cat, m.Schema, t, m.posNodes, m.posEdges, assignmentCap, m.Scan); len(as) > 0 {
		value := t.Values[m.posCol]
		names := make(map[string]bool, len(as))
		for _, a := range as {
			names[g.Name(a[m.Rule.Pos.Name])] = true
		}
		canon := m.canonicalEvidence(g, t, as)
		if names[value] {
			return Outcome{Kind: Positive, MarkCols: m.markCols, Canonical: canon, Witness: m.witness(g, as[0], nil)}
		}
		repairs := make([]string, 0, len(names))
		for v := range names {
			repairs = append(repairs, v)
		}
		refSortRepairs(value, repairs)
		return Outcome{Kind: Repair, MarkCols: m.markCols, RepairCol: m.Rule.Pos.Col, Repairs: repairs, Canonical: canon}
	}
	if m.negNodes == nil {
		return Outcome{Kind: NoMatch}
	}
	negAs := refFindAssignments(g, m.Cat, m.Schema, t, m.negNodes, m.negEdges, assignmentCap, m.Scan)
	if len(negAs) == 0 {
		return Outcome{Kind: NoMatch}
	}
	repairSet := make(map[string]bool)
	for _, a := range negAs {
		xn := a[m.Rule.Neg.Name]
		for _, xp := range m.poleCandidates(g, a, m.posNodes, m.posEdges, m.Rule.Pos, m.posIncident) {
			if xp == xn {
				continue
			}
			repairSet[g.Name(xp)] = true
		}
	}
	if len(repairSet) == 0 {
		return Outcome{Kind: NoMatch}
	}
	repairs := make([]string, 0, len(repairSet))
	for v := range repairSet {
		repairs = append(repairs, v)
	}
	refSortRepairs(t.Values[m.posCol], repairs)
	return Outcome{Kind: Repair, MarkCols: m.markCols, RepairCol: m.Rule.Pos.Col,
		Repairs: repairs, Canonical: m.canonicalEvidence(g, t, negAs)}
}

func (m *RefMatcher) canonicalEvidence(g *kb.Graph, t *relation.Tuple, as []refAssignment) map[string]string {
	var canon map[string]string
	for _, n := range m.Rule.Evidence {
		if !n.Sim.Fuzzy() {
			continue
		}
		value := t.Values[m.Schema.MustCol(n.Col)]
		unique := ""
		ambiguous := false
		for _, a := range as {
			name := g.Name(a[n.Name])
			if name == value {
				unique = ""
				ambiguous = true
				break
			}
			if unique == "" {
				unique = name
			} else if unique != name {
				ambiguous = true
				break
			}
		}
		if !ambiguous && unique != "" {
			if canon == nil {
				canon = make(map[string]string)
			}
			canon[n.Col] = unique
		}
	}
	return canon
}

func refSortRepairs(value string, repairs []string) {
	if len(repairs) < 2 {
		return
	}
	dist := make(map[string]int, len(repairs))
	for _, r := range repairs {
		dist[r] = similarity.ED(value, r)
	}
	sort.Slice(repairs, func(i, j int) bool {
		if dist[repairs[i]] != dist[repairs[j]] {
			return dist[repairs[i]] < dist[repairs[j]]
		}
		return repairs[i] < repairs[j]
	})
}

func (m *RefMatcher) poleCandidates(g *kb.Graph, evidence refAssignment, sideNodes []Node, sideEdges []Edge,
	pole Node, incident []Edge) []kb.ID {
	if len(m.Rule.Path) == 0 {
		return refNodeCandidates(g, evidence, pole, incident)
	}

	var bound, lazy []int
	lazyNodes := make([]Node, len(sideNodes))
	for i, n := range sideNodes {
		if _, ok := evidence[n.Name]; ok {
			bound = append(bound, i)
			lazyNodes[i] = n
		} else {
			lazy = append(lazy, i)
			nn := n
			nn.Col = ""
			lazyNodes[i] = nn
		}
	}
	order, ok := refAttachLazy(lazyNodes, sideEdges, bound, lazy)
	if !ok {
		return nil
	}

	const (
		maxPole       = 256
		maxExpansions = 8192
	)
	poleSet := make(map[kb.ID]bool)
	cur := make(refAssignment, len(sideNodes))
	for name, inst := range evidence {
		cur[name] = inst
	}
	expansions := 0
	var rec func(step int) bool
	rec = func(step int) bool {
		if expansions >= maxExpansions || len(poleSet) >= maxPole {
			return true
		}
		if step == len(order) {
			poleSet[cur[pole.Name]] = true
			return false
		}
		ni := order[step]
		name := lazyNodes[ni].Name
		if _, seeded := cur[name]; seeded {
			return rec(step + 1)
		}
		for _, inst := range refLazyCandidates(g, lazyNodes, sideEdges, cur, ni) {
			expansions++
			cur[name] = inst
			if rec(step + 1) {
				delete(cur, name)
				return true
			}
			delete(cur, name)
		}
		return false
	}
	rec(0)
	out := make([]kb.ID, 0, len(poleSet))
	for x := range poleSet {
		out = append(out, x)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func refNodeCandidates(g *kb.Graph, evidence refAssignment, node Node, incident []Edge) []kb.ID {
	cls := g.Lookup(node.Type)
	if cls == kb.Invalid {
		return nil
	}
	var result map[kb.ID]bool
	for _, e := range incident {
		var neigh []kb.ID
		if e.From == node.Name {
			v, ok := evidence[e.To]
			if !ok {
				return nil
			}
			rel := g.Lookup(e.Rel)
			if rel == kb.Invalid {
				return nil
			}
			neigh = g.Subjects(rel, v)
		} else {
			v, ok := evidence[e.From]
			if !ok {
				return nil
			}
			rel := g.Lookup(e.Rel)
			if rel == kb.Invalid {
				return nil
			}
			neigh = g.Objects(v, rel)
		}
		set := make(map[kb.ID]bool, len(neigh))
		for _, x := range neigh {
			if !g.HasType(x, cls) {
				continue
			}
			if result == nil || result[x] {
				set[x] = true
			}
		}
		result = set
		if len(result) == 0 {
			return nil
		}
	}
	if result == nil {
		return nil
	}
	out := make([]kb.ID, 0, len(result))
	for x := range result {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
