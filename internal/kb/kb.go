// Package kb implements an in-memory RDF-style knowledge graph, the
// substrate that detective rules draw evidence from. It models the
// fragment of RDFS the paper relies on: classes, instances, literals,
// relationships (instance→instance edges) and properties
// (instance→literal edges), plus a subClassOf taxonomy.
//
// All node names are interned to dense int32 IDs. A graph is built by
// New or Parse and the Add* calls, then frozen: Freeze, or the first
// read of a name, a type or the taxonomy, lays its names and its type
// and taxonomy assertions out in the flat, pointer-free arrays a DKBS
// snapshot stores, and from then on the graph is read-only, like one
// loaded from a snapshot or built by ApplyDelta. Every reader has one
// body over that layout. A served KB changes only by a new graph (a
// reload or a delta) published through a Store.
package kb

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"detective/internal/similarity"
)

// ID is a dense interned identifier for a node (instance, class or
// literal) or a predicate in the graph. The zero graph has no valid
// IDs; Invalid is returned by lookups that miss.
type ID int32

// Invalid is the sentinel returned when a name is not in the graph.
const Invalid ID = -1

// Kind classifies a node.
type Kind uint8

const (
	// KindUnknown marks nodes seen only as predicate labels or not yet
	// classified.
	KindUnknown Kind = iota
	// KindInstance is an entity, e.g. "Avram Hershko".
	KindInstance
	// KindClass is a concept, e.g. "city".
	KindClass
	// KindLiteral is a string/date/number value, e.g. "1937-12-31".
	KindLiteral
)

func (k Kind) String() string {
	switch k {
	case KindInstance:
		return "instance"
	case KindClass:
		return "class"
	case KindLiteral:
		return "literal"
	default:
		return "unknown"
	}
}

// Edge is one outgoing (or incoming) labelled edge of a node.
type Edge struct {
	Pred ID // relationship or property label
	To   ID // the other endpoint
}

// Graph is an in-memory RDF graph with the indexes rule matching
// needs. It is not safe for concurrent mutation; concurrent reads are
// safe once it is frozen (Freeze, or any read of a name, a type or the
// taxonomy, which freezes it).
//
// Every frozen graph has one layout, whether it was built by New or
// Parse, loaded from a DKBS v2 snapshot (possibly mmap'd in place) or
// made by ApplyDelta: pointer-free arenas, nameBlob/nameOffs/nameTab
// for the name table and idListIndex span tables for the type and
// taxonomy assertions, read by one body per accessor. A frozen graph
// is read-only: every mutator panics. Only a built graph that has not
// been read yet accepts Add* calls; it keeps its names and assertions
// in Go maps until Freeze lays them out.
type Graph struct {
	// Build state of a graph made by New or Parse, dropped by Freeze:
	// the names in ID order, the name -> ID map, and the direct classes
	// and superclasses asserted so far. byName != nil iff the graph
	// still accepts mutation.
	names   []string
	byName  map[string]ID
	types   map[ID][]ID // instance -> direct classes
	superOf map[ID][]ID // class -> direct superclasses

	kinds []Kind

	// The frozen layout of the name table and the assertions (see
	// snapshot2.go).
	nameBlob                                  string    // concatenated name bytes
	nameOffs                                  []uint32  // node i's name = nameBlob[nameOffs[i]:nameOffs[i+1]]
	nameTab                                   nameTable // open-addressing name -> ID index
	typesIdx, instOfIdx, superOfIdx, subOfIdx idListIndex
	mapped                                    *mapping // non-nil when the arenas live in an mmap'd file

	out edgeIndex  // subject -> outgoing edges
	in  edgeIndex  // object -> incoming edges
	sp  *pairTable // (subject, predicate) -> objects
	po  *pairTable // (predicate, object) -> subjects

	preds       map[ID]struct{}
	tripleCount int
	gen         int64 // content mutations; see Generation

	literalClass ID // interned "literal" pseudo-class

	// closed reports that the graph is frozen: laid out, and supers
	// holds, for every class with a direct superclass, its superclass
	// closure.
	closed bool
	supers idSpans

	// nameIdx holds the class name indexes built so far (see
	// NameIndex); idxMu serializes their builds. extents holds the class
	// extents read so far (see InstancesOf); extMu serializes their
	// builds.
	idxMu   sync.RWMutex
	nameIdx map[ID]*similarity.StringIndex
	extMu   sync.RWMutex
	extents map[ID][]ID

	fp atomic.Pointer[uint64] // cached content fingerprint; see delta.go
}

// LiteralClass is the reserved type name that matches any literal
// node, mirroring the paper's "type: literal" rule nodes.
const LiteralClass = "literal"

// New returns an empty graph.
func New() *Graph {
	g := &Graph{
		byName:  make(map[string]ID),
		types:   make(map[ID][]ID),
		superOf: make(map[ID][]ID),
		sp:      newPairTable(0, 0),
		po:      newPairTable(0, 0),
		preds:   make(map[ID]struct{}),
	}
	g.literalClass = g.intern(LiteralClass, KindClass)
	return g
}

// mustMutable panics when the graph is frozen: its readers may hold
// views of its arenas, which may be mmap'd read-only file pages, so
// in-place mutation is both a correctness and a memory-safety error.
// Rebuild via Encode + Parse to get a mutable copy.
func (g *Graph) mustMutable() {
	if g.byName == nil {
		panic("kb: graph is read-only (frozen by a read, or loaded from a snapshot); re-parse its text encoding to mutate")
	}
}

// ReadOnly reports whether the graph is frozen and therefore rejects
// mutation: a built graph once it has been read, and every graph
// loaded from a snapshot or made by ApplyDelta.
func (g *Graph) ReadOnly() bool { return g.byName == nil }

// read freezes g on its first read. Every reader of names, types or
// the taxonomy calls it, so a built graph is laid out before any of
// them is answered.
func (g *Graph) read() {
	if !g.closed {
		g.Freeze()
	}
}

// intern returns the ID for name, creating it with the given kind if
// absent. If the node exists with KindUnknown, the kind is upgraded.
func (g *Graph) intern(name string, kind Kind) ID {
	g.mustMutable()
	if id, ok := g.byName[name]; ok {
		if g.kinds[id] == KindUnknown && kind != KindUnknown {
			g.kinds[id] = kind
		}
		return id
	}
	id := ID(len(g.names))
	g.names = append(g.names, name)
	g.kinds = append(g.kinds, kind)
	g.out.addNode()
	g.in.addNode()
	g.byName[name] = id
	g.gen++
	return id
}

// Intern interns name as an instance node and returns its ID.
func (g *Graph) Intern(name string) ID { return g.intern(name, KindInstance) }

// InternLiteral interns name as a literal node and returns its ID.
func (g *Graph) InternLiteral(name string) ID { return g.intern(name, KindLiteral) }

// InternClass interns name as a class node and returns its ID.
func (g *Graph) InternClass(name string) ID { return g.intern(name, KindClass) }

// InternPred interns name as a predicate label and returns its ID.
func (g *Graph) InternPred(name string) ID {
	id := g.intern(name, KindUnknown)
	g.preds[id] = struct{}{}
	return id
}

// Lookup returns the ID of name, or Invalid if the graph has never
// seen it.
func (g *Graph) Lookup(name string) ID {
	g.read()
	return g.nameTab.lookup(g.nameBlob, g.nameOffs, name)
}

// Name returns the string form of id. It panics on Invalid.
func (g *Graph) Name(id ID) string {
	g.read()
	return g.nameBlob[g.nameOffs[id]:g.nameOffs[id+1]]
}

// KindOf reports the kind of id.
func (g *Graph) KindOf(id ID) Kind { return g.kinds[id] }

// NumNodes returns the number of interned nodes (including predicates
// and the reserved literal class).
func (g *Graph) NumNodes() int { return len(g.kinds) }

// NumTriples returns the number of relationship/property triples added
// (type and subclass assertions are not counted).
func (g *Graph) NumTriples() int { return g.tripleCount }

// NumClasses returns the number of class nodes, excluding the reserved
// "literal" pseudo-class.
func (g *Graph) NumClasses() int {
	n := 0
	for id, k := range g.kinds {
		if k == KindClass && ID(id) != g.literalClass {
			n++
		}
	}
	return n
}

// Predicates returns all predicate IDs in deterministic order.
func (g *Graph) Predicates() []ID {
	out := make([]ID, 0, len(g.preds))
	for p := range g.preds {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumPredicates returns the number of distinct relationship/property
// labels.
func (g *Graph) NumPredicates() int { return len(g.preds) }

// Generation counts the content mutations that built the graph
// (triples, type and subclass assertions, new interned nodes), and a
// Store restamps it above every generation it has published. It is
// what generation-keyed caches tell two served graphs apart by: a
// frozen graph's content never changes, so its entries never go stale.
func (g *Graph) Generation() int64 { return g.gen }

// AddTriple records the triple (s, p, o) with o an instance. Both
// endpoints and the predicate are interned on demand.
func (g *Graph) AddTriple(s, p, o string) {
	g.AddTripleID(g.Intern(s), g.InternPred(p), g.Intern(o))
}

// AddPropertyTriple records the triple (s, p, o) with o a literal.
func (g *Graph) AddPropertyTriple(s, p, o string) {
	g.AddTripleID(g.Intern(s), g.InternPred(p), g.InternLiteral(o))
}

// AddTripleID records the triple (s, p, o) over already-interned IDs.
// Duplicate triples are ignored.
func (g *Graph) AddTripleID(s, p, o ID) {
	g.mustMutable()
	key := pairKey(s, p)
	for _, ex := range g.sp.get(key) {
		if ex == o {
			return
		}
	}
	g.out.add(s, Edge{Pred: p, To: o})
	g.in.add(o, Edge{Pred: p, To: s})
	g.sp.add(key, o)
	g.po.add(pairKey(p, o), s)
	g.preds[p] = struct{}{}
	g.tripleCount++
	g.gen++
}

// AddType asserts that instance inst has class cls.
func (g *Graph) AddType(inst, cls string) {
	g.AddTypeID(g.Intern(inst), g.InternClass(cls))
}

// AddTypeID asserts type membership over interned IDs.
func (g *Graph) AddTypeID(inst, cls ID) {
	g.mustMutable()
	for _, c := range g.types[inst] {
		if c == cls {
			return
		}
	}
	g.types[inst] = append(g.types[inst], cls)
	g.gen++
}

// AddSubclass asserts sub ⊆ super in the taxonomy.
func (g *Graph) AddSubclass(sub, super string) {
	g.AddSubclassID(g.InternClass(sub), g.InternClass(super))
}

// AddSubclassID asserts the subclass edge over interned IDs.
func (g *Graph) AddSubclassID(sub, super ID) {
	g.mustMutable()
	for _, s := range g.superOf[sub] {
		if s == super {
			return
		}
	}
	g.superOf[sub] = append(g.superOf[sub], super)
	g.gen++
}

// Objects returns all o with (s, p, o) in the graph. The returned
// slice is shared; callers must not mutate it.
func (g *Graph) Objects(s, p ID) []ID { return g.sp.get(pairKey(s, p)) }

// Subjects returns all s with (s, p, o) in the graph. The returned
// slice is shared; callers must not mutate it.
func (g *Graph) Subjects(p, o ID) []ID { return g.po.get(pairKey(p, o)) }

// HasEdge reports whether the triple (s, p, o) is in the graph.
func (g *Graph) HasEdge(s, p, o ID) bool {
	for _, x := range g.sp.get(pairKey(s, p)) {
		if x == o {
			return true
		}
	}
	return false
}

// Out returns the outgoing edges of s (shared slice). Like a map
// lookup, out-of-range IDs (e.g. Invalid) yield nil.
func (g *Graph) Out(s ID) []Edge { return g.out.view(s) }

// In returns the incoming edges of o (shared slice). Like a map
// lookup, out-of-range IDs (e.g. Invalid) yield nil.
func (g *Graph) In(o ID) []Edge { return g.in.view(o) }

// DirectTypes returns the directly asserted classes of inst (shared
// slice).
func (g *Graph) DirectTypes(inst ID) []ID {
	g.read()
	return g.typesIdx.view(inst)
}

// forEachTyped calls fn once per instance with at least one directly
// asserted class, in ID order.
func (g *Graph) forEachTyped(fn func(inst ID, classes []ID)) {
	g.read()
	g.typesIdx.forEach(fn)
}

// forEachSubclassed calls fn once per class with at least one direct
// superclass, in ID order.
func (g *Graph) forEachSubclassed(fn func(sub ID, supers []ID)) {
	g.read()
	g.superOfIdx.forEach(fn)
}

// Freeze makes the graph read-only and safe for concurrent reads. A
// built graph is laid out exactly as a loaded snapshot is — names
// through flatNames, the type and taxonomy assertions through idListsOf
// — and its build maps dropped, so every mutator panics from then on.
// Every graph then gets one ascending superclass closure per class that
// has a superclass (a class without one is its own closure), gathered
// by a cycle-safe walk: a taxonomy with a cycle gives every class on it
// the same closure. Class extents (InstancesOf) and name indexes
// (NameIndex) are built later, on first read, under the graph's locks.
func (g *Graph) Freeze() {
	if g.closed {
		return
	}
	if g.byName != nil {
		n := len(g.kinds)
		g.nameBlob, g.nameOffs, g.nameTab = flatNames(n, func(id ID) string { return g.names[id] })
		g.typesIdx, g.instOfIdx = idListsOf(n, g.types)
		g.superOfIdx, g.subOfIdx = idListsOf(n, g.superOf)
		g.names, g.byName, g.types, g.superOf = nil, nil, nil, nil
	}
	g.supers = g.superClosures()
	g.closed = true
}

// idSpans is a set of ascending ID lists in compressed-row form: node
// i's list is ids[offs[i]:offs[i+1]]. Nodes at or past len(offs)-1
// have empty lists.
type idSpans struct {
	offs []uint32
	ids  []ID
}

// view returns id's list (shared, capped), or nil when it is empty.
func (s *idSpans) view(id ID) []ID {
	if id < 0 || int(id) >= len(s.offs)-1 {
		return nil
	}
	lo, hi := s.offs[id], s.offs[id+1]
	if lo == hi {
		return nil
	}
	return s.ids[lo:hi:hi]
}

// superClosures returns, for every node up to the last one with a
// direct superclass, the node itself and all its superclasses,
// transitively, ascending; a node without a superclass gets an empty
// list. Each closure is gathered by a walk that skips classes already
// in it, so a cycle ends the walk.
func (g *Graph) superClosures() idSpans {
	last := Invalid
	g.superOfIdx.forEach(func(sub ID, _ []ID) { last = sub })
	if last == Invalid {
		return idSpans{}
	}
	s := idSpans{offs: make([]uint32, last+2)}
	var stack []ID
	for c := ID(0); c <= last; c++ {
		start := len(s.ids)
		if sup := g.superOfIdx.view(c); len(sup) > 0 {
			s.ids = append(s.ids, c)
			stack = append(stack[:0], sup...)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if slices.Contains(s.ids[start:], x) {
					continue
				}
				s.ids = append(s.ids, x)
				stack = append(stack, g.superOfIdx.view(x)...)
			}
			slices.Sort(s.ids[start:])
		}
		s.offs[c+1] = uint32(len(s.ids))
	}
	return s
}

// isa reports whether class c is sup or one of its subclasses,
// transitively: whether sup is in c's closure.
func (g *Graph) isa(c, sup ID) bool {
	cl := g.supers.view(c)
	if cl == nil {
		return c == sup
	}
	for _, x := range cl {
		if x >= sup {
			return x == sup
		}
	}
	return false
}

// InstancesOf returns every instance whose type closure contains cls,
// i.e. direct members plus members of all (transitive) subclasses, in
// ascending ID order. For the reserved "literal" class it returns every
// literal node. A class's extent is built the first time it is read
// and kept with the graph; concurrent first reads build it once, under
// the graph's lock. The returned slice is shared; callers must not
// mutate it.
func (g *Graph) InstancesOf(cls ID) []ID {
	if cls < 0 || int(cls) >= len(g.kinds) {
		return nil
	}
	g.read()
	g.extMu.RLock()
	ext, ok := g.extents[cls]
	g.extMu.RUnlock()
	if ok {
		return ext
	}
	g.extMu.Lock()
	defer g.extMu.Unlock()
	if ext, ok := g.extents[cls]; ok {
		return ext
	}
	if cls == g.literalClass {
		ext = g.literals()
	} else {
		ext = g.extent(cls)
	}
	if g.extents == nil {
		g.extents = make(map[ID][]ID)
	}
	g.extents[cls] = ext
	return ext
}

// extent gathers the direct instances of cls and of every class whose
// closure holds it, ascending and once each. An instance must also
// pass HasType, which reads the direct-type table: a snapshot's
// instance table is its inverse only when the snapshot was written by
// this package, and the loader does not check it.
func (g *Graph) extent(cls ID) []ID {
	var ext []ID
	add := func(c ID) {
		for _, x := range g.instOfIdx.view(c) {
			if g.HasType(x, cls) {
				ext = append(ext, x)
			}
		}
	}
	add(cls)
	for c := ID(0); int(c) < len(g.supers.offs)-1; c++ {
		if c != cls && g.isa(c, cls) {
			add(c)
		}
	}
	slices.Sort(ext)
	return slices.Compact(ext)
}

// NameIndexMaxED is the largest edit-distance threshold a name index
// answers: PASS-JOIN segments are fixed when the index is built.
const NameIndexMaxED = 3

// NameIndex returns the signature index over the names of cls's
// instances (InstancesOf), each entry's payload its node ID, and
// builds it the first time it is read. Every reader of the graph
// shares one index per class: concurrent first reads build it once,
// under the graph's lock. A frozen graph's classes never change, so a
// built index is kept for the graph's lifetime.
func (g *Graph) NameIndex(cls ID) *similarity.StringIndex {
	g.idxMu.RLock()
	ix := g.nameIdx[cls]
	g.idxMu.RUnlock()
	if ix != nil {
		return ix
	}
	g.idxMu.Lock()
	defer g.idxMu.Unlock()
	if ix := g.nameIdx[cls]; ix != nil {
		return ix
	}
	insts := g.InstancesOf(cls)
	names := make([]string, len(insts))
	payloads := make([]int32, len(insts))
	for i, inst := range insts {
		names[i], payloads[i] = g.Name(inst), int32(inst)
	}
	ix = similarity.BuildStringIndex(NameIndexMaxED, names, payloads)
	if g.nameIdx == nil {
		g.nameIdx = make(map[ID]*similarity.StringIndex)
	}
	g.nameIdx[cls] = ix
	return ix
}

// IndexedNames returns the number of names in the name indexes built
// so far.
func (g *Graph) IndexedNames() int {
	g.idxMu.RLock()
	defer g.idxMu.RUnlock()
	n := 0
	for _, ix := range g.nameIdx {
		n += ix.Len()
	}
	return n
}

func (g *Graph) literals() []ID {
	// Literals are rare query targets; scan on demand.
	var out []ID
	for id, k := range g.kinds {
		if k == KindLiteral {
			out = append(out, ID(id))
		}
	}
	return out
}

// HasType reports whether inst is a (transitive) member of cls: one
// of inst's direct classes has cls in its closure. Any literal node is
// a member of the reserved "literal" class.
func (g *Graph) HasType(inst, cls ID) bool {
	if cls == g.literalClass {
		return g.kinds[inst] == KindLiteral
	}
	g.read()
	for _, d := range g.typesIdx.view(inst) {
		if g.isa(d, cls) {
			return true
		}
	}
	return false
}

// TypesOf returns every class inst belongs to, including superclasses
// through the taxonomy, in ascending ID order: the union of its direct
// classes' closures. Literals yield only the reserved "literal" class.
func (g *Graph) TypesOf(inst ID) []ID {
	if g.kinds[inst] == KindLiteral {
		return []ID{g.literalClass}
	}
	g.read()
	var out []ID
	for _, d := range g.typesIdx.view(inst) {
		if cl := g.supers.view(d); cl != nil {
			out = append(out, cl...)
		} else {
			out = append(out, d)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Subclasses returns the direct subclasses of cls (shared slice).
func (g *Graph) Subclasses(cls ID) []ID {
	g.read()
	return g.subOfIdx.view(cls)
}

// Superclasses returns the direct superclasses of cls (shared slice).
func (g *Graph) Superclasses(cls ID) []ID {
	g.read()
	return g.superOfIdx.view(cls)
}

// TaxonomyDepth returns the length of the longest superclass chain
// starting at cls (0 for a root class). It is used only for KB
// statistics and must be called on an acyclic taxonomy.
func (g *Graph) TaxonomyDepth(cls ID) int {
	best := 0
	for _, s := range g.Superclasses(cls) {
		if d := g.TaxonomyDepth(s) + 1; d > best {
			best = d
		}
	}
	return best
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("kb.Graph{nodes=%d classes=%d preds=%d triples=%d}",
		g.NumNodes(), g.NumClasses(), g.NumPredicates(), g.NumTriples())
}
