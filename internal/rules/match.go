package rules

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/similarity"
)

// Assignment is one instance-level matching graph (§II-B) as a slot
// row: slot i holds the KB instance bound to node i of the node list
// it was matched against.
type Assignment []kb.ID

// FindAssignments returns instance-level matching graphs binding every
// node to a KB instance such that (1) the tuple value of the node's
// column matches the instance under the node's sim, (2) the instance
// has the node's type, and (3) every edge's relationship holds between
// the bound instances. At most limit assignments are returned
// (limit <= 0 means all). Nodes are matched in ascending candidate-set
// order, and edges are checked as soon as both endpoints are bound.
func FindAssignments(cat *Catalog, schema *relation.Schema, t *relation.Tuple,
	nodes []Node, edges []Edge, limit int) []Assignment {
	var sy symbols
	p := newPlan(schema, nodes, edges, &sy)
	g := cat.Graph()
	s := getWorkspace(g, sy.on(g), nil)
	defer putWorkspace(s)
	n := s.find(cat, t, &p, limit, false)
	if n == 0 {
		return nil
	}
	out := make([]Assignment, n)
	for i := range out {
		out[i] = slices.Clone(Assignment(s.row(i, len(nodes))))
	}
	return out
}

// symbols are the type and relation names of a matcher's plans and
// poles, which refer to them by index, so that a graph resolves each
// name once (Matcher.resolve) instead of on every retrieval.
type symbols []string

// intern returns name's index, adding it on first sight.
func (sy *symbols) intern(name string) int32 {
	if i := slices.Index(*sy, name); i >= 0 {
		return int32(i)
	}
	*sy = append(*sy, name)
	return int32(len(*sy) - 1)
}

// on resolves every symbol on g; a name g lacks resolves to kb.Invalid.
func (sy symbols) on(g *kb.Graph) []kb.ID {
	ids := make([]kb.ID, len(sy))
	for i, name := range sy {
		ids[i] = g.Lookup(name)
	}
	return ids
}

// plan is a node list prepared for slot-addressed matching. What
// depends only on the rule and the schema is resolved once: each
// node's schema column and type symbol, each edge's endpoint slots and
// relation symbol, and the order in which path nodes attach to the
// column-bound ones.
type plan struct {
	nodes []Node
	cols  []int   // schema column per node; -1 for a path node or a column the schema lacks
	cls   []int32 // type symbol per node
	edges []planEdge
	bound []int32 // column-bound node slots, in node order
	lazy  []int32 // path node slots, in the order they attach to the bound ones
	// attached is false when some path node can never attach, or when
	// path nodes exist with nothing to anchor them on.
	attached bool
}

// planEdge is an edge whose endpoints are both in the plan's nodes;
// edges touching other nodes constrain nothing and are dropped.
type planEdge struct {
	from, to int32
	rel      int32 // relation symbol
}

// touches reports whether slot i is an endpoint of e, and if so the
// slot at e's other end.
func (e *planEdge) touches(i int32) (other int32, ok bool) {
	switch i {
	case e.from:
		return e.to, true
	case e.to:
		return e.from, true
	}
	return -1, false
}

// slotOf returns the slot of the node named name, or -1. Rules have a
// handful of nodes, so a scan beats a map.
func slotOf(nodes []Node, name string) int32 {
	for i := range nodes {
		if nodes[i].Name == name {
			return int32(i)
		}
	}
	return -1
}

func newPlan(schema *relation.Schema, nodes []Node, edges []Edge, sy *symbols) plan {
	p := plan{nodes: nodes, cols: make([]int, len(nodes)), cls: make([]int32, len(nodes)),
		edges: make([]planEdge, 0, len(edges))}
	for _, e := range edges {
		fi, ti := slotOf(nodes, e.From), slotOf(nodes, e.To)
		if fi < 0 || ti < 0 {
			continue
		}
		p.edges = append(p.edges, planEdge{from: fi, to: ti, rel: sy.intern(e.Rel)})
	}
	var lazy []int32
	for i, n := range nodes {
		p.cls[i] = sy.intern(n.Type)
		p.cols[i] = -1
		if n.Col == "" {
			lazy = append(lazy, int32(i))
			continue
		}
		p.cols[i] = schema.Col(n.Col)
		p.bound = append(p.bound, int32(i))
	}
	p.lazy, p.attached = p.attach(p.bound, lazy)
	if len(p.bound) == 0 && len(lazy) > 0 {
		p.attached = false // nothing to anchor the existential nodes on
	}
	return p
}

// attach orders the lazy slots so that each, when visited, is adjacent
// to a placed slot (the bound ones or an earlier lazy one). ok is false
// when some lazy slot can never attach.
func (p *plan) attach(bound, lazy []int32) (order []int32, ok bool) {
	placed := make([]bool, len(p.nodes))
	for _, i := range bound {
		placed[i] = true
	}
	remaining := slices.Clone(lazy)
	for len(remaining) > 0 {
		progress := false
		for k, i := range remaining {
			attached := false
			for j := range p.edges {
				if other, ok := p.edges[j].touches(i); ok && placed[other] {
					attached = true
					break
				}
			}
			if attached {
				order = append(order, i)
				placed[i] = true
				remaining = slices.Delete(remaining, k, k+1)
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

// pole is the positive or negative node prepared for deriving its
// candidates from a bound source row: an evidence row on the
// edge-driven path, a negative-graph row when the value-driven path
// draws corrections.
type pole struct {
	node Node
	cls  int32 // type symbol of node
	// Rules without path nodes: the pole's incident edges, each with
	// the source slot of its other endpoint.
	inc []poleEdge
	// Rules with path nodes: the side graph is traversed existentially.
	// at is the pole's slot in side, seeds copy source slots into side
	// slots, and order visits the seeded slots, then the rest in attach
	// order. ok is false when some side node can never attach.
	side  *plan
	at    int32
	seeds []seed
	order []int32
	ok    bool
}

type poleEdge struct {
	src int32 // source slot of the other endpoint; -1 if the source row lacks it
	out bool  // the pole is the edge's From end
	rel int32 // relation symbol
}

type seed struct{ side, src int32 }

func newPole(node Node, incident []Edge, side *plan, src []Node, sy *symbols) pole {
	p := pole{node: node, cls: sy.intern(node.Type), side: side, inc: make([]poleEdge, 0, len(incident))}
	for _, e := range incident {
		pe := poleEdge{out: e.From == node.Name, rel: sy.intern(e.Rel)}
		other := e.From
		if pe.out {
			other = e.To
		}
		pe.src = slotOf(src, other)
		p.inc = append(p.inc, pe)
	}
	p.at = slotOf(side.nodes, node.Name)
	var bound, lazy []int32
	for i, n := range side.nodes {
		if k := slotOf(src, n.Name); k >= 0 {
			bound = append(bound, int32(i))
			p.seeds = append(p.seeds, seed{side: int32(i), src: k})
		} else {
			lazy = append(lazy, int32(i))
		}
	}
	rest, ok := side.attach(bound, lazy)
	p.order, p.ok = append(bound, rest...), ok
	return p
}

// workspace is the per-evaluation working memory: candidate lists, slot
// rows and sorted ID sets live in buffers recycled through workspacePool,
// so an evaluation allocates only for the Outcome it returns.
//
// Candidate lists that recursion must keep while it descends (a path
// node's options) are pushed on stack and popped on return; a push that
// grows stack leaves the lists below it intact in the old array.
type workspace struct {
	g   *kb.Graph
	ids []kb.ID // the matcher's symbols resolved on g

	// rc holds the tuple's candidate lists: the caller's, or own.
	rc  *RowCandidates
	own RowCandidates

	// find: the plan being matched, each column node's candidates, the
	// visiting order, the row being bound and the rows found so far,
	// back to back.
	p     *plan
	cands [][]kb.ID
	order []int32
	cur   []kb.ID
	rows  []kb.ID
	nrows int
	limit int

	// poleCandidates over a path rule's side graph: the pole, its row,
	// and the sorted pole set growing at pset[pstart:].
	pp         *pole
	pcur       []kb.ID
	pset       []kb.ID
	pstart     int
	expansions int

	stack []kb.ID
	tmp   []kb.ID

	// Evaluation: every evidence row's positive candidates back to back
	// (posEnd[i] ends row i's), the negative candidates of one row, the
	// evidence rows with an exact, a fuzzy and a negative match, and
	// candidate repair names.
	posc                  []kb.ID
	posEnd                []int32
	negc                  []kb.ID
	exact, fuzzy, negRows []kb.ID
	names                 []string
	ranked                []rankedName
}

type rankedName struct {
	dist int
	name string
}

var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

// getWorkspace returns a workspace on g, with ids the symbols resolved
// on g, reading and keeping candidate lists in rc, or in its own when
// rc is nil.
func getWorkspace(g *kb.Graph, ids []kb.ID, rc *RowCandidates) *workspace {
	s := workspacePool.Get().(*workspace)
	s.g, s.ids, s.rc = g, ids, rc
	if rc == nil {
		s.own.Reset(g)
		s.rc = &s.own
	}
	return s
}

// putWorkspace recycles s. It drops the graph and the names and values
// it held, so a pooled workspace keeps no retired KB reachable.
func putWorkspace(s *workspace) {
	s.g, s.ids, s.rc, s.p, s.pp = nil, nil, nil, nil, nil
	s.own.Reset(nil)
	clear(s.cands)
	clear(s.names)
	clear(s.ranked)
	s.names, s.ranked = s.names[:0], s.ranked[:0]
	workspacePool.Put(s)
}

// row returns found row i of width w.
func (s *workspace) row(i, w int) []kb.ID { return s.rows[i*w : (i+1)*w] }

// find enumerates the instance-level matching graphs of p on t into
// s.rows, one row of len(p.nodes) slots per match, and returns their
// number, stopping after limit rows (limit <= 0: all). Column nodes'
// candidates come from the tuple's lists in s.rc, or, when scan is
// set, from the basic algorithm's class-extent scan.
func (s *workspace) find(cat *Catalog, t *relation.Tuple, p *plan, limit int, scan bool) int {
	s.rows, s.nrows = s.rows[:0], 0
	if cap(s.cands) < len(p.nodes) {
		s.cands = make([][]kb.ID, len(p.nodes))
	}
	s.cands = s.cands[:len(p.nodes)]
	for _, i := range p.bound {
		col, cls := p.cols[i], s.ids[p.cls[i]]
		if col < 0 || cls == kb.Invalid {
			return 0
		}
		var c []kb.ID
		if spec := p.nodes[i].Sim; scan {
			c = scanCandidates(s.g, cls, spec, t.Values[col])
		} else {
			c = s.rc.candidates(cat, col, cls, spec, t.Values[col])
		}
		if len(c) == 0 {
			return 0
		}
		s.cands[i] = c
	}
	if !p.attached {
		return 0
	}
	// Match cheapest bound nodes first, then path nodes in attach order.
	// The sort is stable: ties keep node order, which fixes the
	// enumeration order and so which rows assignmentCap keeps.
	order := append(s.order[:0], p.bound...)
	slices.SortStableFunc(order, func(a, b int32) int { return len(s.cands[a]) - len(s.cands[b]) })
	s.order = append(order, p.lazy...)
	s.cur = fillInvalid(s.cur, len(p.nodes))
	s.p, s.limit = p, limit
	s.match(0)
	return s.nrows
}

// match binds the node at order[step] and recurses; it reports whether
// the row limit was hit.
func (s *workspace) match(step int) bool {
	if step == len(s.order) {
		s.rows = append(s.rows, s.cur...)
		s.nrows++
		return s.limit > 0 && s.nrows >= s.limit
	}
	p := s.p
	ni := s.order[step]
	mark := len(s.stack)
	options := s.cands[ni]
	if p.nodes[ni].Col == "" {
		options = s.lazyCandidates(p, s.cur, ni)
	}
	hit := false
candidates:
	for _, inst := range options {
		// Edges whose other endpoint is already bound must hold.
		for ei := range p.edges {
			e := &p.edges[ei]
			other, ok := e.touches(ni)
			if !ok || s.cur[other] == kb.Invalid {
				continue
			}
			from, to := inst, s.cur[other]
			if e.from != ni {
				from, to = to, from
			}
			if rel := s.ids[e.rel]; rel == kb.Invalid || !s.g.HasEdge(from, rel, to) {
				continue candidates
			}
		}
		s.cur[ni] = inst
		hit = s.match(step + 1)
		s.cur[ni] = kb.Invalid
		if hit {
			break
		}
	}
	s.stack = s.stack[:mark]
	return hit
}

// lazyCandidates pushes on s.stack the instances that can stand as the
// column-less node ni: the intersection of the relationship
// neighbourhoods of its bound neighbours in cur, filtered by type, in
// ascending ID order. It returns the pushed list.
func (s *workspace) lazyCandidates(p *plan, cur []kb.ID, ni int32) []kb.ID {
	start := len(s.stack)
	cls := s.ids[p.cls[ni]]
	if cls == kb.Invalid {
		return nil
	}
	first := true
	for ei := range p.edges {
		e := &p.edges[ei]
		other, ok := e.touches(ni)
		if !ok || cur[other] == kb.Invalid {
			continue
		}
		rel := s.ids[e.rel]
		if rel == kb.Invalid {
			s.stack = s.stack[:start]
			return nil
		}
		var neigh []kb.ID
		if e.from == ni {
			neigh = s.g.Subjects(rel, cur[other])
		} else {
			neigh = s.g.Objects(cur[other], rel)
		}
		s.stack = s.narrow(s.stack, start, neigh, cls, first)
		first = false
		if len(s.stack) == start {
			return nil
		}
	}
	return s.stack[start:]
}

// narrow maintains the sorted, duplicate-free ID set dst[start:]: the
// first call fills it with the members of neigh that have type cls,
// later calls keep only the members also in neigh.
func (s *workspace) narrow(dst []kb.ID, start int, neigh []kb.ID, cls kb.ID, first bool) []kb.ID {
	if first {
		for _, x := range neigh {
			if s.g.HasType(x, cls) {
				dst = append(dst, x)
			}
		}
		set := dst[start:]
		slices.Sort(set)
		return dst[:start+len(slices.Compact(set))]
	}
	s.tmp = append(s.tmp[:0], neigh...)
	slices.Sort(s.tmp)
	set, k, j := dst[start:], 0, 0
	for _, x := range set {
		for j < len(s.tmp) && s.tmp[j] < x {
			j++
		}
		if j < len(s.tmp) && s.tmp[j] == x {
			set[k] = x
			k++
		}
	}
	return dst[:start+k]
}

func fillInvalid(ids []kb.ID, n int) []kb.ID {
	ids = slices.Grow(ids[:0], n)[:n]
	for i := range ids {
		ids[i] = kb.Invalid
	}
	return ids
}

// OutcomeKind classifies the result of evaluating a rule on a tuple.
type OutcomeKind uint8

const (
	// NoMatch: the rule says nothing about the tuple.
	NoMatch OutcomeKind = iota
	// Positive: proof positive — evidence and positive node matched;
	// the touched cells are correct (§II-C case 1).
	Positive
	// Repair: proof negative and correction — evidence plus negative
	// node matched and the KB supplies at least one replacement value
	// (§II-C cases 2–3).
	Repair
)

func (k OutcomeKind) String() string {
	switch k {
	case Positive:
		return "positive"
	case Repair:
		return "repair"
	default:
		return "no-match"
	}
}

// Outcome is the verdict of one rule on one tuple.
type Outcome struct {
	Kind OutcomeKind
	// MarkCols are the columns proven correct (evidence ∪ {p}).
	MarkCols []string
	// RepairCol is the column to rewrite (only for Kind == Repair).
	RepairCol string
	// Repairs holds the candidate correct values drawn from the KB,
	// deduplicated and ordered most-similar first. More than one entry
	// is a multi-version repair (§IV-C).
	Repairs []string
	// Witness maps rule-node names to the KB instance names of one
	// instance-level matching graph behind the verdict — the
	// "white-box" provenance of the decision. For a Repair via proof
	// negative, the negative node's binding is the instance the wrong
	// value matched; path nodes appear under their declared names.
	Witness map[string]string
	// Canonical maps matched columns to the canonical KB instance name
	// when the tuple value matched only fuzzily (a typo within the
	// node's similarity threshold). Applying the rule rewrites these
	// cells to the canonical names so that, regardless of which rule
	// marks a cell first, the fixpoint carries the KB's spelling —
	// without this, marking a typo'd evidence value would freeze the
	// typo and break the Church-Rosser property.
	Canonical map[string]string
}

// Compiled is one detective rule prepared for one schema: validated,
// with its plans, poles and symbol table. It holds no catalog, store or
// graph, so every engine that evaluates the rule binds the one value
// (Bind), whatever KB it reads.
type Compiled struct {
	Rule   *DR
	Schema *relation.Schema

	// syms are the type and relation names the plans and poles use.
	syms symbols

	ev  plan // evidence nodes and the edges among them
	pos plan // evidence ∪ path ∪ {pos}; the pole's slot is len(Evidence)
	neg plan // evidence ∪ path ∪ {neg}; no nodes if annotation-only

	// Pole derivation: the positive and negative node from an evidence
	// row (edge-driven), and the positive node from a negative-graph
	// row (value-driven corrections).
	posFromEv, negFromEv, posFromNeg pole

	evCols   []int // schema column per evidence node
	markCols []string
	posCol   int // schema index of Pos.Col
}

// Compile validates the rule against the schema and prepares the node
// sets used during evaluation.
func Compile(rule *DR, schema *relation.Schema) (*Compiled, error) {
	if err := rule.Validate(schema); err != nil {
		return nil, err
	}
	allNodes := append(append([]Node(nil), rule.Evidence...), rule.Pos)
	if rule.Neg != nil {
		allNodes = append(allNodes, *rule.Neg)
	}
	for _, n := range allNodes {
		if n.Sim.Op == similarity.OpED && n.Sim.K > MaxEDThreshold {
			return nil, fmt.Errorf("rules: %s: node %s: ED threshold %d exceeds supported maximum %d",
				rule.Name, n.Name, n.Sim.K, MaxEDThreshold)
		}
	}
	c := &Compiled{Rule: rule, Schema: schema}
	sy := &c.syms
	c.ev = newPlan(schema, rule.Evidence, rule.evidenceEdges(), sy)
	pg := rule.positiveGraph()
	c.pos = newPlan(schema, pg.Nodes, pg.Edges, sy)
	c.posFromEv = newPole(rule.Pos, rule.posEdges(), &c.pos, rule.Evidence, sy)
	if ng, ok := rule.negativeGraph(); ok {
		c.neg = newPlan(schema, ng.Nodes, ng.Edges, sy)
		c.negFromEv = newPole(*rule.Neg, rule.negEdges(), &c.neg, rule.Evidence, sy)
		c.posFromNeg = newPole(rule.Pos, rule.posEdges(), &c.pos, ng.Nodes, sy)
	}
	for _, n := range rule.Evidence {
		c.evCols = append(c.evCols, schema.MustCol(n.Col))
	}
	c.markCols = append(rule.EvidenceCols(), rule.Pos.Col)
	c.posCol = schema.MustCol(rule.Pos.Col)
	return c, nil
}

// MarkCols returns the columns a successful application marks.
func (c *Compiled) MarkCols() []string { return c.markCols }

// Bind returns a matcher evaluating c on cat's KB, with a symbol
// resolution of its own: two catalogs' graphs can carry the same
// generation with different IDs.
func (c *Compiled) Bind(cat *Catalog) *Matcher {
	return &Matcher{Compiled: c, Cat: cat, res: new(atomic.Pointer[resolution])}
}

// Matcher evaluates one compiled detective rule against tuples of its
// schema using one KB.
type Matcher struct {
	*Compiled
	Cat *Catalog

	// Scan disables the signature indexes for candidate retrieval,
	// reproducing the basic repair algorithm's per-node cost model.
	Scan bool

	// res holds the rule's symbols resolved on the generation evaluated
	// last. It holds IDs only, so no retired graph stays reachable
	// through it; copies of the Matcher share it.
	res *atomic.Pointer[resolution]
}

// NewMatcher validates the rule against the schema and binds it to
// cat: Compile, then Bind.
func NewMatcher(rule *DR, cat *Catalog, schema *relation.Schema) (*Matcher, error) {
	c, err := Compile(rule, schema)
	if err != nil {
		return nil, err
	}
	return c.Bind(cat), nil
}

// resolution is a matcher's symbols resolved on one graph generation.
type resolution struct {
	gen int64
	ids []kb.ID
}

// resolve returns m's symbols resolved on g, resolving them afresh
// when g's generation is not the one resolved last. Generations key it
// as they key the candidate cache: kb.Store.Swap stamps every graph it
// publishes above all earlier ones, so a generation never names two
// contents.
func (m *Matcher) resolve(g *kb.Graph) []kb.ID {
	gen := g.Generation()
	if r := m.res.Load(); r != nil && r.gen == gen {
		return r.ids
	}
	r := &resolution{gen: gen, ids: m.syms.on(g)}
	m.res.Store(r)
	return r.ids
}

// assignmentCap bounds the number of instance-level matching graphs
// enumerated per rule per tuple. Evidence matches are near-functional
// in practice (the user picks such rules, §III-B), so this is purely
// defensive.
const assignmentCap = 64

// Evaluate applies the rule's semantics to t (read-only): proof
// positive first, then proof negative + correction, mirroring
// Algorithm 1 lines 3–7.
//
// One refinement beyond the letter of Algorithm 1: when the positive
// node matches only *fuzzily* (the cell value is within the node's
// similarity threshold of a KB instance but not equal to it — a typo),
// Evaluate reports a Repair that rewrites the cell to the canonical
// instance name instead of a bare Positive. This is how the paper's
// experiments repair typo errors ("repair an error to the most
// similar candidate", §V-B Exp-2(B)).
//
// Two equivalent strategies are implemented. The *value-driven* one
// (used in Scan mode, i.e. by the basic algorithm) matches the full
// positive/negative graphs with candidate sets retrieved from the
// tuple values — the paper's Algorithm 1 cost model. The *edge-driven*
// one (the fast engine) first matches the evidence nodes, then derives
// positive/negative node candidates through the KB edges from the
// matched evidence instances, which avoids value-driven retrieval over
// large or low-entropy class extents entirely.
func (m *Matcher) Evaluate(t *relation.Tuple) Outcome {
	return m.EvaluateOn(m.Cat.Graph(), t)
}

// EvaluateOn is Evaluate against an explicitly pinned graph: callers
// repairing a whole tuple (or table) pin the store's graph once and
// evaluate every rule on it, so a concurrent hot swap never mixes two
// KBs within one tuple.
func (m *Matcher) EvaluateOn(g *kb.Graph, t *relation.Tuple) Outcome {
	return m.evaluate(g, nil, t, true)
}

// VerdictOn is EvaluateOn without the Witness, for callers that do not
// record provenance. Its other fields equal EvaluateOn's, and when the
// verdict needs no Repairs or Canonical cells it allocates nothing.
func (m *Matcher) VerdictOn(g *kb.Graph, t *relation.Tuple) Outcome {
	return m.evaluate(g, nil, t, false)
}

// EvaluateRow is EvaluateOn on rc's graph with t's candidate lists in
// rc: the rule's column nodes read what earlier evaluations and
// evidence checks on t retrieved, and keep there what they retrieve.
func (m *Matcher) EvaluateRow(rc *RowCandidates, t *relation.Tuple) Outcome {
	return m.evaluate(rc.g, rc, t, true)
}

// VerdictRow is VerdictOn with t's candidate lists in rc, as
// EvaluateRow.
func (m *Matcher) VerdictRow(rc *RowCandidates, t *relation.Tuple) Outcome {
	return m.evaluate(rc.g, rc, t, false)
}

func (m *Matcher) evaluate(g *kb.Graph, rc *RowCandidates, t *relation.Tuple, witness bool) Outcome {
	s := getWorkspace(g, m.resolve(g), rc)
	var out Outcome
	if !m.Scan && len(m.Rule.Evidence) > 0 {
		out = m.evaluateEdgeDriven(s, t, witness)
	} else {
		out = m.evaluateValueDriven(s, t, witness)
	}
	putWorkspace(s)
	return out
}

// evaluateEdgeDriven matches evidence first and resolves the positive
// and negative nodes through their incident edges.
func (m *Matcher) evaluateEdgeDriven(s *workspace, t *relation.Tuple, witness bool) Outcome {
	g := s.g
	w := len(m.Rule.Evidence)
	n := s.find(m.Cat, t, &m.ev, assignmentCap, false)
	if n == 0 {
		return Outcome{Kind: NoMatch}
	}
	value := t.Values[m.posCol]

	// (1) Proof positive: a positive-node instance consistent with the
	// evidence whose name matches the cell value under sim(p). Rows with
	// an exact match go to exact; a row without one goes to fuzzy once
	// any row so far has matched fuzzily.
	exact, fuzzy := s.exact[:0], s.fuzzy[:0]
	s.posc, s.posEnd, s.names = s.posc[:0], s.posEnd[:0], s.names[:0]
	for i := 0; i < n; i++ {
		row := s.row(i, w)
		start := len(s.posc)
		s.posc = m.poleCandidates(s, row, &m.posFromEv, s.posc)
		s.posEnd = append(s.posEnd, int32(len(s.posc)))
		hit := false
		for _, xp := range s.posc[start:] {
			name := g.Name(xp)
			if !m.Rule.Pos.Sim.Match(value, name) {
				continue
			}
			if name == value {
				hit = true
			} else {
				s.names = append(s.names, name)
			}
		}
		if hit {
			exact = append(exact, row...)
		} else if len(s.names) > 0 {
			fuzzy = append(fuzzy, row...)
		}
	}
	s.exact, s.fuzzy = exact, fuzzy
	if len(exact) > 0 {
		out := Outcome{Kind: Positive, MarkCols: m.markCols, Canonical: m.canonicalEvidence(g, t, exact, w)}
		if witness {
			out.Witness = m.witness(g, m.Rule.Evidence, exact[:w], nil, kb.Invalid)
		}
		return out
	}
	if len(s.names) > 0 {
		out := Outcome{Kind: Repair, MarkCols: m.markCols, RepairCol: m.Rule.Pos.Col,
			Repairs: s.rankRepairs(value), Canonical: m.canonicalEvidence(g, t, fuzzy, w)}
		if witness {
			out.Witness = m.witness(g, m.Rule.Evidence, fuzzy[:w], nil, kb.Invalid)
		}
		return out
	}

	// (2) Proof negative + (3) correction.
	if m.Rule.Neg == nil {
		return Outcome{Kind: NoMatch}
	}
	negRows := s.negRows[:0]
	var wRow []kb.ID
	wNeg := kb.Invalid
	for i := 0; i < n; i++ {
		row := s.row(i, w)
		// The negative candidates whose names match the value, in
		// ascending ID order.
		xns := m.poleCandidates(s, row, &m.negFromEv, s.negc[:0])
		k := 0
		for _, xn := range xns {
			if m.Rule.Neg.Sim.Match(value, g.Name(xn)) {
				xns[k] = xn
				k++
			}
		}
		s.negc, xns = xns, xns[:k]
		if k == 0 {
			continue
		}
		negRows = append(negRows, row...)
		lo := int32(0)
		if i > 0 {
			lo = s.posEnd[i-1]
		}
		repaired := false
		for _, xp := range s.posc[lo:s.posEnd[i]] {
			if _, isNeg := slices.BinarySearch(xns, xp); isNeg {
				continue // paper requires xp != xn
			}
			s.names = append(s.names, g.Name(xp))
			repaired = true
		}
		if repaired && wRow == nil {
			wRow, wNeg = row, xns[0]
		}
	}
	s.negRows = negRows
	if len(s.names) == 0 {
		return Outcome{Kind: NoMatch}
	}
	out := Outcome{Kind: Repair, MarkCols: m.markCols, RepairCol: m.Rule.Pos.Col,
		Repairs: s.rankRepairs(value), Canonical: m.canonicalEvidence(g, t, negRows, w)}
	if witness {
		out.Witness = m.witness(g, m.Rule.Evidence, wRow, m.Rule.Neg, wNeg)
	}
	return out
}

// witness renders a row over nodes (plus an optional extra binding) as
// node-name -> instance-name provenance.
func (m *Matcher) witness(g *kb.Graph, nodes []Node, row []kb.ID, extra *Node, inst kb.ID) map[string]string {
	out := make(map[string]string, len(nodes)+1)
	for i, n := range nodes {
		out[n.Name] = g.Name(row[i])
	}
	if extra != nil && inst != kb.Invalid {
		out[extra.Name] = g.Name(inst)
	}
	return out
}

// evaluateValueDriven matches the full positive (then negative) graph
// with value-retrieved candidate sets per node.
func (m *Matcher) evaluateValueDriven(s *workspace, t *relation.Tuple, witness bool) Outcome {
	g := s.g
	value := t.Values[m.posCol]
	// (1) Proof positive.
	w := len(m.pos.nodes)
	at := len(m.Rule.Evidence) // the pole's slot, in positive and negative rows alike
	if n := s.find(m.Cat, t, &m.pos, assignmentCap, m.Scan); n > 0 {
		s.names = s.names[:0]
		hit := false
		for i := 0; i < n; i++ {
			name := g.Name(s.rows[i*w+at])
			hit = hit || name == value
			s.names = append(s.names, name)
		}
		canon := m.canonicalEvidence(g, t, s.rows, w)
		if hit {
			out := Outcome{Kind: Positive, MarkCols: m.markCols, Canonical: canon}
			if witness {
				out.Witness = m.witness(g, m.pos.nodes, s.row(0, w), nil, kb.Invalid)
			}
			return out
		}
		return Outcome{Kind: Repair, MarkCols: m.markCols, RepairCol: m.Rule.Pos.Col,
			Repairs: s.rankRepairs(value), Canonical: canon}
	}
	// (2) Proof negative + (3) correction.
	if m.Rule.Neg == nil {
		return Outcome{Kind: NoMatch}
	}
	// Enumerate instance-level matches of evidence ∪ {neg}; for each,
	// draw replacement instances for the positive node from the KB.
	w = len(m.neg.nodes)
	n := s.find(m.Cat, t, &m.neg, assignmentCap, m.Scan)
	if n == 0 {
		return Outcome{Kind: NoMatch}
	}
	s.names = s.names[:0]
	for i := 0; i < n; i++ {
		row := s.row(i, w)
		xn := row[at]
		s.posc = m.poleCandidates(s, row, &m.posFromNeg, s.posc[:0])
		for _, xp := range s.posc {
			if xp == xn {
				continue // paper requires xp != xn
			}
			s.names = append(s.names, g.Name(xp))
		}
	}
	if len(s.names) == 0 {
		// Proof negative held but the KB offers no correction: stay
		// conservative and do nothing (the paper repairs only when the
		// evidence is sufficient).
		return Outcome{Kind: NoMatch}
	}
	return Outcome{Kind: Repair, MarkCols: m.markCols, RepairCol: m.Rule.Pos.Col,
		Repairs: s.rankRepairs(value), Canonical: m.canonicalEvidence(g, t, s.rows, w)}
}

// canonicalEvidence derives, for each evidence node whose tuple value
// matched a KB instance only fuzzily, the canonical instance name — if
// it is unique across the rows (width w, evidence in the first slots).
// Ambiguous matches are left untouched.
func (m *Matcher) canonicalEvidence(g *kb.Graph, t *relation.Tuple, rows []kb.ID, w int) map[string]string {
	var canon map[string]string
	for i, n := range m.Rule.Evidence {
		if !n.Sim.Fuzzy() {
			continue
		}
		value := t.Values[m.evCols[i]]
		unique := ""
		ambiguous := false
		for r := i; r < len(rows); r += w {
			name := g.Name(rows[r])
			if name == value {
				// The raw value itself is a KB instance: keep it.
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

// rankRepairs turns the candidate names in s.names into the Repairs
// list: deduplicated and ordered by ascending edit distance to the
// current (wrong) value, ties broken lexically, so Repairs[0] is the
// "most similar candidate" the paper's single-version experiments
// repair to (§V-B Exp-2(B)).
func (s *workspace) rankRepairs(value string) []string {
	slices.Sort(s.names)
	names := slices.Compact(s.names)
	out := make([]string, len(names))
	if len(names) < 2 {
		copy(out, names)
		return out
	}
	s.ranked = s.ranked[:0]
	for _, r := range names {
		s.ranked = append(s.ranked, rankedName{similarity.ED(value, r), r})
	}
	slices.SortFunc(s.ranked, func(a, b rankedName) int {
		if a.dist != b.dist {
			return a.dist - b.dist
		}
		return strings.Compare(a.name, b.name)
	})
	for i, r := range s.ranked {
		out[i] = r.name
	}
	return out
}

// poleCandidates appends to dst the KB instances that can stand as the
// pole given a bound source row, in ascending ID order. Without path
// nodes this is the direct edge-neighbourhood intersection; with path
// nodes the side graph is traversed existentially (the §II-C path
// extension), collecting every pole instance reachable through
// type-consistent intermediate instances.
func (m *Matcher) poleCandidates(s *workspace, row []kb.ID, p *pole, dst []kb.ID) []kb.ID {
	if len(m.Rule.Path) == 0 {
		return s.nodeCandidates(row, p, dst)
	}
	if !p.ok {
		return dst
	}
	s.pcur = fillInvalid(s.pcur, len(p.side.nodes))
	for _, sd := range p.seeds {
		s.pcur[sd.side] = row[sd.src]
	}
	s.pp, s.pset, s.pstart, s.expansions = p, dst, len(dst), 0
	s.walk(0)
	dst, s.pset = s.pset, nil
	return dst
}

// Bounds on the existential path traversal per pole derivation.
const (
	maxPole       = 256
	maxExpansions = 8192
)

// walk binds the side node at order[step]; at the end of the order it
// adds the pole's binding to the sorted set s.pset[s.pstart:]. It
// reports whether a traversal bound was hit.
func (s *workspace) walk(step int) bool {
	p := s.pp
	if s.expansions >= maxExpansions || len(s.pset)-s.pstart >= maxPole {
		return true
	}
	if step == len(p.order) {
		x := s.pcur[p.at]
		if i, found := slices.BinarySearch(s.pset[s.pstart:], x); !found {
			s.pset = slices.Insert(s.pset, s.pstart+i, x)
		}
		return false
	}
	ni := p.order[step]
	if s.pcur[ni] != kb.Invalid {
		return s.walk(step + 1) // seeded from the source row
	}
	mark := len(s.stack)
	hit := false
	for _, inst := range s.lazyCandidates(p.side, s.pcur, ni) {
		s.expansions++
		s.pcur[ni] = inst
		hit = s.walk(step + 1)
		s.pcur[ni] = kb.Invalid
		if hit {
			break
		}
	}
	s.stack = s.stack[:mark]
	return hit
}

// nodeCandidates appends to dst the KB instances that can stand as the
// pole given a bound source row: the intersection of the relationship
// neighbourhoods demanded by every incident edge, filtered by the
// pole's type, in ascending ID order.
func (s *workspace) nodeCandidates(row []kb.ID, p *pole, dst []kb.ID) []kb.ID {
	start := len(dst)
	cls := s.ids[p.cls]
	if cls == kb.Invalid {
		return dst
	}
	for i, e := range p.inc {
		if e.src < 0 {
			return dst[:start]
		}
		rel := s.ids[e.rel]
		if rel == kb.Invalid {
			return dst[:start]
		}
		var neigh []kb.ID
		if e.out {
			// edge p -> v: candidates are subjects of (x, rel, I[v])
			neigh = s.g.Subjects(rel, row[e.src])
		} else {
			// edge v -> p: candidates are objects of (I[v], rel, x)
			neigh = s.g.Objects(row[e.src], rel)
		}
		dst = s.narrow(dst, start, neigh, cls, i == 0)
		if len(dst) == start {
			return dst
		}
	}
	return dst
}

// EvidenceCheck reports whether t can match the rule's evidence node i
// at the value level on rc's graph: some KB instance of the node's type
// matches its cell under its sim. The candidates stay in rc, t's
// candidate lists, where the rule's evaluation finds them. It is the
// check the fast repair engine shares across rules (Figure 5 node
// keys).
func (m *Matcher) EvidenceCheck(rc *RowCandidates, t *relation.Tuple, i int) bool {
	cls := m.resolve(rc.g)[m.ev.cls[i]]
	if cls == kb.Invalid {
		return false
	}
	col := m.evCols[i]
	return len(rc.candidates(m.Cat, col, cls, m.Rule.Evidence[i].Sim, t.Values[col])) > 0
}
