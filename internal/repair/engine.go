package repair

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/rules"
	"detective/internal/similarity"
	"detective/internal/telemetry"
)

// Engine applies a set of consistent detective rules to tuples of one
// schema against one KB. Build it once and reuse it across tuples;
// it is safe for concurrent use after construction as long as the KB
// has been frozen. The per-class signature indexes belong to the graph
// (kb.Graph.NameIndex): the first lookup that reads one builds it, once
// per graph, and every engine on that graph shares it.
//
// Every memoizable node/edge check is assigned a dense integer ID at
// construction time, so the per-tuple hot path never hashes a string:
// the memo is a flat tri-state array, the inverted rule indexes
// (Figure 5) are slice-of-slice lookups, and repair-time invalidation
// walks a precomputed column → check-ID list instead of scanning every
// known check key. Per-tuple state is pooled, so steady-state repair
// allocates only for the result tuple and actual rule applications.
type Engine struct {
	Schema *relation.Schema
	Cat    *rules.Catalog
	Graph  *RuleGraph

	opts Options

	fast []*rules.Matcher // signature-index candidate retrieval
	slow []*rules.Matcher // full-scan retrieval (Algorithm 1 cost model)

	// numChecks is the number of distinct check IDs; dense IDs are in
	// [0, numChecks).
	numChecks int

	// evIndex[id] lists the rules that use check id as *evidence* —
	// the inverted rule indexes of the paper's Figure 5, so a failed
	// shared check prunes every rule that depends on it. Node and edge
	// checks share the ID space (their string keys are disjoint by
	// construction), so one index serves both.
	evIndex [][]int

	// colInval[col] lists the check IDs that read schema column col,
	// used to invalidate memoized checks when a repair rewrites the
	// column. Only checks that can actually enter the memo (evidence
	// nodes/edges, positive nodes, positive-incident edges) are listed.
	colInval [][]int32

	// Per-rule pre-resolved check lists.
	evChecks   [][]check // evidence node + edge checks per rule
	posID      []int32   // positive-node check ID per rule
	posEdgeIDs [][]int32 // positive-incident edge check IDs per rule

	// Per-rule schema columns: the columns an application marks, and
	// the column it repairs (the positive node's).
	markCols [][]int
	posCol   []int

	// flatGroup is the single all-rules group used by the NoRuleOrder
	// ablation, precomputed so the hot path never rebuilds it.
	flatGroup [][]int

	// pool recycles fastState values (alive + memo slices) across
	// tuples so RepairTableParallel and CleanCSVStream run
	// allocation-free in steady state.
	pool sync.Pool

	// stepBudget bounds the number of rule applications (and, in
	// cyclic groups, rescan passes) per tuple; see Options.StepBudget.
	stepBudget int

	// stats are the lifetime fault-tolerance counters; see Stats.
	stats statsCounters

	// instr exports outcome counters and sampled latency histograms to
	// the process-wide telemetry registry.
	instr *engineInstr

	// memo is the global cross-request repair memo (see memo.go); nil
	// when Options.MemoDisabled or a negative MemoBytes turned it off.
	memo *repairMemo

	// breaker is the global repair circuit breaker (see breaker.go);
	// nil unless Options.Breaker.Enabled. ruleBreakers holds one
	// breaker per rule when Options.Breaker.PerRule is also set.
	breaker      *breaker
	ruleBreakers []breaker

	// recorder samples the input rows of repairInto for canary shadow
	// replay; nil unless Options.Recorder was supplied.
	recorder *RowRecorder

	// ens holds the ensemble mode's proposers, weights, and counters
	// (see ensemble_engine.go); nil unless Options.Ensemble.Enabled.
	ens *ensembleState
}

// check is one memoizable value-level test, identified by its dense
// ID. Edge checks carry no payload: they are only consulted when
// already memoized (see fastStep).
type check struct {
	id     int32
	node   rules.Node
	isEdge bool
}

// Tri-state memo values: a check is unknown until computed for the
// tuple's current values.
const (
	memoUnknown int8 = iota
	memoTrue
	memoFalse
)

// Options disables individual optimizations of the fast repair
// algorithm, for the ablation study of the three §IV-B improvements.
// The zero value is the full Algorithm 2.
type Options struct {
	// NoRuleOrder ignores the rule graph: rules are re-scanned in
	// input order until a fixpoint, as in the basic algorithm.
	NoRuleOrder bool
	// NoSharedChecks disables the memoized node/edge checks and the
	// inverted-list pruning of Figure 5.
	NoSharedChecks bool
	// NoIndexes replaces signature-index candidate retrieval with
	// full class-extent scans.
	NoIndexes bool

	// TelemetrySampleEvery is the latency-sampling period for the
	// telemetry histograms: one tuple in every N is timed end to end
	// and per stage. 0 picks DefaultTelemetrySampleEvery (64); a
	// negative value disables latency sampling (outcome counters are
	// exact either way).
	TelemetrySampleEvery int

	// StepBudget bounds the fixpoint work done on one tuple: the
	// number of rule applications, and in cyclic rule graphs also the
	// number of rescan passes per component. A tuple that exhausts the
	// budget degrades to keep-original-value — the repair is discarded,
	// the original tuple is returned unchanged, and the event is
	// tallied in Stats.BudgetExhausted — instead of looping. 0 picks a
	// generous default that no terminating rule set can hit (§III's
	// termination analysis bounds applications by the rule count).
	StepBudget int

	// MemoBytes is the byte budget of the global cross-request repair
	// memo (memo.go), which caches whole-tuple outcomes. 0 picks
	// DefaultMemoBytes; a negative value disables the memo, same as
	// MemoDisabled. The memo never changes repair results — replays
	// are byte-identical and hot KB reloads invalidate it by
	// generation — so the only reasons to turn it off are measurement
	// (ablations, benchmarks of the uncached path) and memory-starved
	// deployments.
	MemoBytes int64

	// MemoDisabled turns the global repair memo off entirely.
	MemoDisabled bool

	// Breaker configures the repair circuit breaker (see
	// BreakerOptions). The zero value leaves it disabled; the serving
	// paths then pay a single nil check per tuple.
	Breaker BreakerOptions

	// Recorder, when non-nil, samples the input rows of every fast
	// single-tuple repair into a ring buffer for canary shadow replay
	// (see RowRecorder).
	Recorder *RowRecorder

	// PrivateTelemetry routes this engine's collectors to a throwaway
	// registry instead of telemetry.Default(). Canary scratch engines
	// set it so shadow replays never pollute the process's serving
	// metrics.
	PrivateTelemetry bool

	// Ensemble configures the ensemble mode (see ensemble_engine.go):
	// the detective engine plus the configured auxiliary proposers
	// vote per cell with confidence weights. Only RepairRowEnsemble
	// and CleanCSVStreamEnsembleContext vote; every other path stays
	// single-engine and byte-identical to an engine built without it.
	// The zero value leaves it off.
	Ensemble EnsembleOptions
}

// NewEngine validates the rules and builds matchers, the rule graph,
// and the inverted indexes. The rule set is assumed consistent
// (verify with the consistency package).
func NewEngine(drs []*rules.DR, g *kb.Graph, schema *relation.Schema) (*Engine, error) {
	return NewEngineWithOptions(drs, g, schema, Options{})
}

// NewEngineWithOptions is NewEngine with ablation switches.
func NewEngineWithOptions(drs []*rules.DR, g *kb.Graph, schema *relation.Schema, opts Options) (*Engine, error) {
	return NewEngineStore(drs, kb.NewStore(g), schema, opts)
}

// NewEngineStore builds the engine over a swappable KB handle: every
// tuple repair pins the store's current graph once at entry and runs
// entirely on it, so kb.Store.Swap can replace the KB mid-stream
// without mixing two graphs within one tuple.
func NewEngineStore(drs []*rules.DR, store *kb.Store, schema *relation.Schema, opts Options) (*Engine, error) {
	if len(drs) == 0 {
		return nil, fmt.Errorf("repair: empty rule set")
	}
	e := &Engine{
		Schema:   schema,
		Cat:      rules.NewCatalogStore(store),
		Graph:    BuildRuleGraph(drs),
		opts:     opts,
		colInval: make([][]int32, schema.Arity()),
	}

	// idOf interns a check key to a dense ID; two rules share an ID
	// exactly when they would have shared the string key, which is the
	// shared-computation identity of §IV-B. cols are the schema
	// columns the check reads (registered once, on first assignment).
	ids := make(map[string]int32)
	idOf := func(key string, cols ...string) int32 {
		if id, ok := ids[key]; ok {
			return id
		}
		id := int32(len(e.evIndex))
		ids[key] = id
		e.evIndex = append(e.evIndex, nil)
		for _, c := range cols {
			if ci := schema.Col(c); ci >= 0 {
				e.colInval[ci] = append(e.colInval[ci], id)
			}
		}
		return id
	}

	for i, dr := range drs {
		fm, err := rules.NewMatcher(dr, e.Cat, schema)
		if err != nil {
			return nil, err
		}
		e.fast = append(e.fast, fm)
		sm := *fm // the same prepared rule; only candidate retrieval differs
		sm.Scan = true
		e.slow = append(e.slow, &sm)

		nodeByName := make(map[string]rules.Node)
		for _, n := range dr.Evidence {
			nodeByName[n.Name] = n
		}
		nodeByName[dr.Pos.Name] = dr.Pos
		if dr.Neg != nil {
			nodeByName[dr.Neg.Name] = *dr.Neg
		}

		var evs []check
		for _, n := range dr.Evidence {
			id := idOf(n.Key(), n.Col)
			evs = append(evs, check{id: id, node: n})
			e.evIndex[id] = append(e.evIndex[id], i)
		}
		evSet := make(map[string]bool, len(dr.Evidence))
		for _, n := range dr.Evidence {
			evSet[n.Name] = true
		}
		var posEdgeIDs []int32
		for _, ed := range dr.Edges {
			from, to := nodeByName[ed.From], nodeByName[ed.To]
			k := rules.EdgeKey(from, ed.Rel, to)
			switch {
			case evSet[ed.From] && evSet[ed.To]:
				id := idOf(k, from.Col, to.Col)
				evs = append(evs, check{id: id, isEdge: true})
				e.evIndex[id] = append(e.evIndex[id], i)
			case ed.From == dr.Pos.Name || ed.To == dr.Pos.Name:
				posEdgeIDs = append(posEdgeIDs, idOf(k, from.Col, to.Col))
			}
		}
		e.evChecks = append(e.evChecks, evs)
		e.posID = append(e.posID, idOf(dr.Pos.Key(), dr.Pos.Col))
		e.posEdgeIDs = append(e.posEdgeIDs, posEdgeIDs)

		var marks []int
		for _, c := range fm.MarkCols() {
			marks = append(marks, schema.MustCol(c))
		}
		e.markCols = append(e.markCols, marks)
		e.posCol = append(e.posCol, schema.MustCol(dr.Pos.Col))
	}
	e.numChecks = len(e.evIndex)

	all := make([]int, len(drs))
	for i := range all {
		all[i] = i
	}
	e.flatGroup = [][]int{all}

	e.stepBudget = opts.StepBudget
	if e.stepBudget <= 0 {
		// Each rule applies at most once per tuple (§III termination),
		// so any terminating run fits in len(drs) applications; the
		// default leaves ample headroom for future multi-application
		// schedules while still catching genuine runaways.
		e.stepBudget = 16*len(drs) + 64
	}
	reg := telemetry.Default()
	if opts.PrivateTelemetry {
		reg = telemetry.NewRegistry()
	}
	e.instr = newEngineInstr(opts.TelemetrySampleEvery, reg)
	if !opts.MemoDisabled && opts.MemoBytes >= 0 {
		budget := opts.MemoBytes
		if budget == 0 {
			budget = DefaultMemoBytes
		}
		e.memo = newRepairMemo(schema, budget)
		e.instr.registerMemo(e.memo)
	}
	if opts.Breaker.Enabled {
		bo := opts.Breaker.withDefaults()
		e.breaker = &breaker{}
		e.breaker.init(bo)
		if bo.PerRule {
			e.ruleBreakers = make([]breaker, len(drs))
			for i := range e.ruleBreakers {
				e.ruleBreakers[i].init(bo)
			}
		}
		e.instr.registerBreaker(e)
	}
	e.recorder = opts.Recorder
	if opts.Ensemble.Enabled {
		e.ens = newEnsembleState(opts.Ensemble, reg)
	}
	return e, nil
}

// Rules returns the engine's rule set, in construction order.
func (e *Engine) Rules() []*rules.DR { return e.Graph.Rules }

// Store returns the engine's swappable KB handle. Swapping a new
// graph into it (kb.Store.Swap) takes effect on the next tuple each
// worker starts; in-flight tuples finish on the graph they pinned.
func (e *Engine) Store() *kb.Store { return e.Cat.Store() }

// Warm builds on the current graph the signature index of every class
// a rule node names, evidence, positive and negative alike, by issuing
// one lookup per distinct (type, sim) pair, so later timings exclude
// index construction. Benchmarks and the Figure 8 timings call it;
// serving never does, and builds only the indexes its lookups read.
func (e *Engine) Warm() {
	type pair struct {
		typ string
		sim similarity.Spec
	}
	g := e.Cat.Graph()
	seen := make(map[pair]bool)
	warm := func(n rules.Node) {
		p := pair{n.Type, n.Sim}
		if seen[p] {
			return
		}
		seen[p] = true
		e.Cat.CandidatesOn(g, n.Type, n.Sim, "")
	}
	for _, m := range e.fast {
		for _, n := range m.Rule.Evidence {
			warm(n)
		}
		warm(m.Rule.Pos)
		if m.Rule.Neg != nil {
			warm(*m.Rule.Neg)
		}
	}
}

// applicable implements the multi-rule applicability test of §III-B:
// rule idx, whose verdict on t is out, must not change a positively
// marked cell and must mark at least one new cell.
func (e *Engine) applicable(t *relation.Tuple, idx int, out rules.Outcome) bool {
	switch out.Kind {
	case rules.Positive:
		for _, c := range e.markCols[idx] {
			if !t.Marked[c] {
				return true
			}
		}
		return false
	case rules.Repair:
		return !t.Marked[e.posCol[idx]]
	default:
		return false
	}
}

// apply mutates t according to rule idx's outcome, choosing version
// of a multi-version repair, and appends to changed the columns whose
// values changed (the repaired column and any canonicalized evidence
// columns). When alts is non-nil, the full candidate list of every
// rewritten cell is recorded there — the paper scores a multi-version
// repair as correct when *any* version matches the ground truth
// (§V-A).
//
// detectOnly is the circuit breaker's degraded mode: only the marks
// are written — the cells the rule implicates — and every value write
// (canonicalization and repair alike) is skipped. Appending nothing
// to changed is load-bearing: fastStep's post-apply block re-asserts
// the positive check as memoTrue, which would be wrong for a value
// that was never rewritten, and is skipped only when nothing changed.
func (e *Engine) apply(t *relation.Tuple, idx int, out rules.Outcome, version int, alts map[string][]string, detectOnly bool, changed []int) []int {
	if detectOnly {
		for _, c := range e.markCols[idx] {
			t.Marked[c] = true
		}
		return changed
	}
	for c, v := range out.Canonical {
		col := e.Schema.MustCol(c)
		if !t.Marked[col] && t.Values[col] != v {
			t.Values[col] = v
			changed = append(changed, col)
			if alts != nil {
				alts[c] = []string{v}
			}
		}
	}
	if out.Kind == rules.Repair {
		col := e.posCol[idx]
		if t.Values[col] != out.Repairs[version] {
			t.Values[col] = out.Repairs[version]
			changed = append(changed, col)
			if alts != nil {
				alts[out.RepairCol] = append([]string(nil), out.Repairs...)
			}
		}
	}
	for _, c := range e.markCols[idx] {
		t.Marked[c] = true
	}
	return changed
}

// BasicRepair is Algorithm 1: repeatedly scan the not-yet-applied
// rules for one that is applicable, apply it, and restart, until a
// fixpoint. Candidate retrieval scans class extents (the paper's
// O(|Σ|² · |C||X||V|) cost model). The input tuple is not modified;
// the repaired tuple is returned. Multi-version repairs take the
// most-similar candidate (Repairs[0]).
func (e *Engine) BasicRepair(t *relation.Tuple) *relation.Tuple {
	return e.basicRepair(t, nil)
}

func (e *Engine) basicRepair(t *relation.Tuple, alts map[string][]string) *relation.Tuple {
	g := e.Cat.Graph() // pin: the whole tuple repairs against one KB
	cl := t.Clone()
	used := make([]bool, len(e.slow))
	applied := 0
	for {
		progress := false
		for i, m := range e.slow {
			if used[i] {
				continue
			}
			out := m.VerdictOn(g, cl)
			if !e.applicable(cl, i, out) {
				continue
			}
			if applied++; applied > e.stepBudget {
				// Degrade to keep-original-value rather than loop.
				e.count(tupleBudgetExhausted)
				return t.Clone()
			}
			e.apply(cl, i, out, 0, alts, false, nil)
			used[i] = true // each rule is applied at most once (Alg. 1 line 8)
			progress = true
			break
		}
		if !progress {
			e.count(tupleOK)
			return cl
		}
	}
}

// FastRepair is Algorithm 2: rules are visited once in the
// topological order of the rule graph (components re-scanned until
// stable); value-level node and edge checks are memoized and shared
// across rules through the inverted indexes; failed shared evidence
// checks prune every dependent rule; candidate retrieval uses the
// signature indexes. Like every fast single-tuple repair it runs
// through repairInto: the memo may answer t, a configured breaker may
// serve it detect-only, and a repair that panics returns t unchanged,
// counted in Stats.Quarantined.
func (e *Engine) FastRepair(t *relation.Tuple) *relation.Tuple {
	out, _ := e.repairTuple(context.TODO(), t)
	return out
}

// repairTuple repairs t into a new tuple through repairInto.
func (e *Engine) repairTuple(ctx context.Context, t *relation.Tuple) (*relation.Tuple, tupleOutcome) {
	out := &relation.Tuple{Values: make([]string, len(t.Values)), Marked: make([]bool, len(t.Values))}
	oc, _, _ := e.repairInto(ctx, out, t.Values, t.Marked, false)
	return out, oc
}

// repairInto is the one read-through around a fast single-tuple
// repair; FastRepair, RepairTable*, RepairRow, the streaming cleaners
// and the ensemble all call it. It repairs the input row (vals with
// marks, nil meaning unmarked) into tup, whose Values and Marked have
// the row's arity, and leaves there the row to emit: repaired on
// tupleOK, the input otherwise. In order, it
//   - samples the row for the canary recorder;
//   - pins one graph, so lookup, repair and insert see one generation;
//   - while the breaker is open, serves the row detect-only (rules
//     mark, values stay) and bypasses the memo both ways, so degraded
//     verdicts never outlive the incident;
//   - answers from the memo, except on a half-open probe, which runs
//     fresh so a cached quarantine cannot decide it and its verdict
//     overwrites the entry; ensemble rows use salted keys;
//   - runs the repair under the panic quarantine (with ens, alongside
//     the auxiliary proposers, whose vote then settles tup);
//   - memoizes the verdict, quarantine and step-budget exhaustion
//     included, so a replay degrades identically.
//
// It returns the outcome, counted once in the engine's counters, the
// row confidence (1 without ens) and whether the memo served the row.
// The memo may keep vals' strings (see putTuple).
func (e *Engine) repairInto(ctx context.Context, tup *relation.Tuple, vals []string, marks []bool, ens bool) (tupleOutcome, float64, bool) {
	if rr := e.recorder; rr != nil {
		rr.Record(vals)
	}
	g := e.Cat.Graph()
	degrade, probe := e.breakerAdmit()
	memo := e.memo
	if degrade {
		memo = nil
	}
	var gen int64
	var fp uint64
	if memo != nil {
		gen = g.Generation()
		fp = memo.tupleFP(vals, marks)
		if ens {
			fp ^= ensembleFPSalt
		}
		if !probe {
			if oc, conf, ok := memo.getInto(gen, fp, vals, marks, tup); ok {
				e.count(oc)
				return oc, conf, true
			}
		}
	}
	var vote *ensembleVote
	if ens && !degrade {
		vote = e.ens.propose(ctx, vals)
	}
	resetRow(tup, vals, marks)
	var oc tupleOutcome
	if degrade {
		oc = e.detectOnlyRowOn(g, tup)
	} else {
		oc = e.repairRowSafeOn(g, tup, probe)
	}
	if oc != tupleOK {
		// Keep-original-value: the partial repair is discarded.
		resetRow(tup, vals, marks)
	}
	conf := 1.0
	if vote != nil {
		conf = vote.settle(tup, vals, oc)
	}
	if memo != nil {
		memo.putTuple(gen, fp, vals, marks, tup, oc, conf)
	}
	return oc, conf, false
}

// resetRow sets tup to the input row: vals, with marks (nil means
// unmarked).
func resetRow(tup *relation.Tuple, vals []string, marks []bool) {
	copy(tup.Values, vals)
	if marks == nil {
		clear(tup.Marked)
	} else {
		copy(tup.Marked, marks)
	}
}

// repairRowSafeOn runs the in-place repair on the pinned graph g
// under a panic quarantine and tallies the outcome into the engine's
// lifetime counters. On a non-OK outcome tup is left in an undefined
// state; the caller restores the input row. probe marks this row as
// the breaker's half-open probe: its outcome resolves the breaker.
// The panicking repair's pooled state is abandoned, not recycled.
func (e *Engine) repairRowSafeOn(g *kb.Graph, tup *relation.Tuple, probe bool) (oc tupleOutcome) {
	st := e.getStateOn(g)
	st.brk = true
	st.probe = probe
	defer func() {
		if r := recover(); r != nil {
			oc = tupleQuarantined
			e.breakerObserve(st, oc)
		}
		e.count(oc)
	}()
	if e.runFast(tup, st) {
		oc = tupleOK
	} else {
		oc = tupleBudgetExhausted
	}
	e.breakerObserve(st, oc)
	e.putState(st)
	return oc
}

// recordFast is the uncached fast repair of t for the callers that
// record what the memo cannot store: the rule applications into steps
// (/explain) and every rewritten cell's candidate list into alts (the
// evaluation); either may be nil. It never consults the memo, the
// breaker or the recorder. On step-budget exhaustion it returns an
// unchanged clone of t and false.
func (e *Engine) recordFast(t *relation.Tuple, steps *[]Step, alts map[string][]string) (*relation.Tuple, bool) {
	cl := t.Clone()
	st := e.getStateOn(e.Cat.Graph())
	st.steps, st.alts = steps, alts
	ok := e.runFast(cl, st)
	e.putState(st)
	if !ok {
		e.count(tupleBudgetExhausted)
		return t.Clone(), false
	}
	e.count(tupleOK)
	return cl, true
}

// runFast drives the grouped rule schedule of Algorithm 2 over cl. It
// reports whether the run completed within the per-tuple step budget;
// a false return means cl holds a partial repair the caller must
// discard in favour of the original values. One tuple in every
// sampling period additionally records end-to-end and per-stage
// latency into the telemetry histograms; all other tuples pay one
// atomic add (the sampler) and nil checks.
func (e *Engine) runFast(cl *relation.Tuple, st *fastState) bool {
	if !e.instr.sampler.Sample() {
		return e.runFastGroups(cl, st)
	}
	st.timer = &stageTimer{start: time.Now()}
	ok := e.runFastGroups(cl, st)
	e.instr.observe(st.timer, e.stepBudget-st.stepsLeft)
	st.timer = nil
	return ok
}

// runFastGroups is the uninstrumented scheduling core of runFast.
func (e *Engine) runFastGroups(cl *relation.Tuple, st *fastState) bool {
	groups := e.Graph.Groups
	if e.opts.NoRuleOrder {
		// Ablation: one flat group re-scanned to a fixpoint, as in the
		// basic algorithm.
		groups = e.flatGroup
	}
	for _, group := range groups {
		cyclic := len(group) > 1 && (e.Graph.HasCycle() || e.opts.NoRuleOrder)
		passes := 0
		for {
			progress := false
			for _, idx := range group {
				if !st.alive[idx] {
					continue
				}
				if e.fastStep(cl, idx, st, cyclic) {
					progress = true
				}
				if st.exceeded {
					return false
				}
			}
			if !cyclic || !progress {
				break
			}
			// A cyclic component ("circle", §III) is re-scanned until
			// stable; the pass budget turns a non-terminating rule
			// interaction into a degrade event instead of a hang.
			if passes++; passes > e.stepBudget {
				return false
			}
		}
	}
	return true
}

type fastState struct {
	alive   []bool
	memo    []int8              // check ID -> tri-state result for the current values
	changed []int               // columns the current application rewrote
	alts    map[string][]string // optional multi-version recorder
	steps   *[]Step             // optional explanation recorder
	timer   *stageTimer         // non-nil only while this tuple is latency-sampled
	g       *kb.Graph           // the KB pinned for this tuple's whole repair

	stepsLeft int  // remaining rule applications before degrade
	exceeded  bool // step budget exhausted for this tuple

	// Circuit-breaker bookkeeping (see breaker.go). brk marks a tuple
	// whose caller will fold the outcome into the breakers via
	// breakerObserve; per-rule breakers are consulted only then, so a
	// detect-only or recording repair can never strand a probe token. lastRule is the
	// rule index being evaluated, read by panic recovery for
	// attribution; ran/probes collect the per-rule samples to record
	// at tuple end.
	detectOnly bool
	brk        bool
	probe      bool
	lastRule   int32
	ran        []int32
	probes     []int32
}

// getStateOn returns a reset fastState pinned to g, reusing a pooled
// one when available so the per-tuple hot path allocates nothing. The
// caller picks g so it can tag results with the generation the repair
// ran on.
func (e *Engine) getStateOn(g *kb.Graph) *fastState {
	st, _ := e.pool.Get().(*fastState)
	if st == nil {
		st = &fastState{
			alive: make([]bool, len(e.fast)),
			memo:  make([]int8, e.numChecks),
		}
	}
	for i := range st.alive {
		st.alive[i] = true
	}
	for i := range st.memo {
		st.memo[i] = memoUnknown
	}
	st.alts = nil
	st.steps = nil
	st.timer = nil
	st.g = g // pin the chosen KB for this tuple
	st.stepsLeft = e.stepBudget
	st.exceeded = false
	st.detectOnly = false
	st.brk = false
	st.probe = false
	st.lastRule = -1
	st.ran = st.ran[:0]
	st.probes = st.probes[:0]
	return st
}

func (e *Engine) putState(st *fastState) {
	st.alts = nil
	st.steps = nil
	st.timer = nil
	st.g = nil
	e.pool.Put(st)
}

// fastStep checks and possibly applies rule idx; it reports whether
// the rule was applied. In cyclic groups pruning of sibling rules is
// suppressed, because a failed evidence check may become true after
// another rule in the same component repairs a value.
func (e *Engine) fastStep(t *relation.Tuple, idx int, st *fastState, cyclic bool) bool {
	// Attribute any panic or budget exhaustion from here on to this
	// rule; breakerObserve reads it out of the abandoned state.
	st.lastRule = int32(idx)
	if e.ruleBreakers != nil && st.brk && !st.detectOnly {
		switch degrade, probe := e.ruleBreakers[idx].admit(); {
		case degrade:
			// This rule's own breaker is open: skip it for this tuple,
			// let every other rule keep repairing.
			st.alive[idx] = false
			return false
		case probe:
			st.probes = append(st.probes, int32(idx))
		default:
			st.ran = append(st.ran, int32(idx))
		}
	}
	m := e.fast[idx]
	if e.opts.NoIndexes {
		m = e.slow[idx]
	}

	// Evidence prechecks, shared across rules (Alg. 2 lines 3-9).
	if e.opts.NoSharedChecks {
		goto evaluate
	}
	for _, c := range e.evChecks[idx] {
		res := st.memo[c.id]
		if res == memoUnknown {
			if c.isEdge {
				// Edge checks are only consulted when already memoized:
				// computing them eagerly duplicates the edge-driven
				// evaluation's own work (measured by the ablation
				// benchmarks), whereas a *failed* edge recorded by an
				// earlier rule still prunes this one.
				continue
			}
			var hold bool
			if st.timer == nil {
				hold = m.NodeCheckOn(st.g, t, c.node)
			} else {
				t0 := time.Now()
				hold = m.NodeCheckOn(st.g, t, c.node)
				st.timer.detect += time.Since(t0)
			}
			if hold {
				res = memoTrue
			} else {
				res = memoFalse
			}
			st.memo[c.id] = res
		}
		if res == memoFalse {
			st.alive[idx] = false
			if !cyclic {
				// Prune every rule that needs this same check as
				// evidence (Figure 5 inverted lists).
				for _, d := range e.evIndex[c.id] {
					st.alive[d] = false
				}
			}
			return false
		}
	}

evaluate:
	var t0 time.Time
	if st.timer != nil {
		t0 = time.Now()
	}
	var out rules.Outcome
	if st.steps == nil {
		out = m.VerdictOn(st.g, t)
	} else {
		out = m.EvaluateOn(st.g, t) // the witness goes into the step
	}
	if st.timer != nil {
		st.timer.detect += time.Since(t0)
	}
	if !e.applicable(t, idx, out) {
		if !cyclic {
			st.alive[idx] = false
		}
		return false
	}
	if st.stepsLeft--; st.stepsLeft < 0 {
		st.exceeded = true
		return false
	}
	var applyStart time.Time
	if st.timer != nil {
		applyStart = time.Now()
	}
	oldValue := ""
	if out.Kind == rules.Repair {
		oldValue = t.Values[e.posCol[idx]]
	}
	st.changed = e.apply(t, idx, out, 0, st.alts, st.detectOnly, st.changed[:0])
	e.recordStep(st, idx, out, oldValue)
	st.alive[idx] = false

	if len(st.changed) > 0 {
		// A rewrite invalidates every memoized check that reads a
		// changed column...
		for _, c := range st.changed {
			for _, id := range e.colInval[c] {
				st.memo[id] = memoUnknown
			}
		}
		// ...except that the rule's own matched structure is witnessed
		// by the instances just found: its evidence checks still hold
		// on the canonicalized values, and after a repair the new value
		// satisfies the positive node and its incident edges (Alg. 2
		// lines 14-16).
		for _, c := range e.evChecks[idx] {
			st.memo[c.id] = memoTrue
		}
		if out.Kind == rules.Repair {
			st.memo[e.posID[idx]] = memoTrue
			for _, id := range e.posEdgeIDs[idx] {
				st.memo[id] = memoTrue
			}
		}
	}

	// Rules fully subsumed by the new marks can be dropped (the sound
	// core of Alg. 2 lines 12-13).
	for j := range st.alive {
		if !st.alive[j] {
			continue
		}
		subsumed := true
		for _, c := range e.markCols[j] {
			if !t.Marked[c] {
				subsumed = false
				break
			}
		}
		if subsumed {
			st.alive[j] = false
		}
	}
	if st.timer != nil {
		st.timer.repair += time.Since(applyStart)
	}
	return true
}

// RepairTable applies the engine to every tuple of tb and returns the
// cleaned copy. fast selects FastRepair over BasicRepair.
func (e *Engine) RepairTable(tb *relation.Table, fast bool) *relation.Table {
	out, _ := e.repairTable(tb, fast, false)
	return out
}

// RepairTableWithAlternatives additionally reports, for every
// rewritten cell (row, col), the full multi-version candidate list of
// the repair that rewrote it, so the evaluation can apply the paper's
// rule that a multi-version repair counts as correct when any version
// matches the ground truth.
func (e *Engine) RepairTableWithAlternatives(tb *relation.Table, fast bool) (*relation.Table, map[[2]int][]string) {
	return e.repairTable(tb, fast, true)
}

// RepairTableParallel is RepairTable with the fast engine fanned out
// over workers goroutines (0 = GOMAXPROCS). Tuples are independent —
// "repairing one tuple is irrelevant to any other tuple" (§V-B) — so
// this is a straight data-parallel map; workers share the graph's
// read-only indexes, each built by the first lookup that reads it.
// Tuples whose repair panics are quarantined (emitted unchanged)
// rather than crashing the run.
func (e *Engine) RepairTableParallel(tb *relation.Table, workers int) *relation.Table {
	out, _, _ := e.RepairTableContext(context.Background(), tb, workers)
	return out
}

// RepairTableContext is RepairTableParallel with cancellation and
// per-call accounting. Each worker checks ctx between tuples; on
// cancellation or deadline the run stops promptly, every not-yet-
// repaired tuple is emitted as an unchanged clone of its input, and
// the error is a *PartialError wrapping ctx.Err() whose Done field
// counts the tuples actually processed. The returned Stats is the
// per-call delta (the engine's lifetime counters advance too).
func (e *Engine) RepairTableContext(ctx context.Context, tb *relation.Table, workers int) (*relation.Table, Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The KB's lazy closures must be materialized before fan-out.
	// (Graphs published through a kb.Store are frozen already; this
	// covers direct-constructed engines whose graph mutated since.)
	e.Cat.Graph().Freeze()
	out := &relation.Table{Schema: tb.Schema, Tuples: make([]*relation.Tuple, tb.Len())}
	var wg sync.WaitGroup
	var next atomic.Int64
	var repaired, quarantined, exhausted atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= tb.Len() {
					return
				}
				t, oc := e.repairTuple(ctx, tb.Tuples[i])
				out.Tuples[i] = t
				switch oc {
				case tupleOK:
					repaired.Add(1)
				case tupleQuarantined:
					quarantined.Add(1)
				case tupleBudgetExhausted:
					exhausted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	stats := Stats{
		Repaired:        repaired.Load(),
		Quarantined:     quarantined.Load(),
		BudgetExhausted: exhausted.Load(),
	}
	done := int(stats.Repaired + stats.Quarantined + stats.BudgetExhausted)
	if err := ctx.Err(); err != nil {
		// Partial result: unclaimed rows pass through unchanged so the
		// caller still gets a complete, well-formed table.
		for i, t := range out.Tuples {
			if t == nil {
				out.Tuples[i] = tb.Tuples[i].Clone()
			}
		}
		return out, stats, &PartialError{Done: done, Err: err}
	}
	return out, stats, nil
}

func (e *Engine) repairTable(tb *relation.Table, fast, trackAlts bool) (*relation.Table, map[[2]int][]string) {
	out := &relation.Table{Schema: tb.Schema, Tuples: make([]*relation.Tuple, tb.Len())}
	var cellAlts map[[2]int][]string
	if trackAlts {
		cellAlts = make(map[[2]int][]string)
	}
	for i, t := range tb.Tuples {
		var alts map[string][]string
		if trackAlts {
			alts = make(map[string][]string)
		}
		switch {
		case !fast:
			out.Tuples[i] = e.basicRepair(t, alts)
		case trackAlts:
			out.Tuples[i], _ = e.recordFast(t, nil, alts)
		default:
			out.Tuples[i] = e.FastRepair(t)
		}
		for col, vs := range alts {
			cellAlts[[2]int{i, e.Schema.MustCol(col)}] = vs
		}
	}
	return out, cellAlts
}
