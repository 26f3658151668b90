package kb

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// paperGraph builds the Figure 1 excerpt of the paper's Yago sample.
func paperGraph() *Graph {
	g := New()
	g.AddType("Avram Hershko", "Nobel laureates in Chemistry")
	g.AddType("Israel Institute of Technology", "organization")
	g.AddType("Nobel Prize in Chemistry", "Chemistry awards")
	g.AddType("Albert Lasker Award for Medicine", "American awards")
	g.AddType("Karcag", "city")
	g.AddType("Israel", "country")
	g.AddType("Haifa", "city")

	g.AddTriple("Avram Hershko", "worksAt", "Israel Institute of Technology")
	g.AddTriple("Avram Hershko", "wasBornIn", "Karcag")
	g.AddTriple("Avram Hershko", "isCitizenOf", "Israel")
	g.AddTriple("Avram Hershko", "wonPrize", "Nobel Prize in Chemistry")
	g.AddTriple("Avram Hershko", "wonPrize", "Albert Lasker Award for Medicine")
	g.AddPropertyTriple("Avram Hershko", "bornOnDate", "1937-12-31")
	g.AddTriple("Israel Institute of Technology", "locatedIn", "Haifa")
	g.AddTriple("Karcag", "locatedIn", "Israel")
	return g
}

func TestInternIsIdempotent(t *testing.T) {
	g := New()
	a := g.Intern("Haifa")
	b := g.Intern("Haifa")
	if a != b {
		t.Fatalf("Intern not idempotent: %d vs %d", a, b)
	}
	if g.Name(a) != "Haifa" {
		t.Fatalf("Name(%d) = %q", a, g.Name(a))
	}
}

func TestLookupMissing(t *testing.T) {
	g := New()
	if got := g.Lookup("nope"); got != Invalid {
		t.Fatalf("Lookup(missing) = %d, want Invalid", got)
	}
}

func TestAddTripleDeduplicates(t *testing.T) {
	g := New()
	g.AddTriple("a", "r", "b")
	g.AddTriple("a", "r", "b")
	if g.NumTriples() != 1 {
		t.Fatalf("NumTriples = %d, want 1", g.NumTriples())
	}
}

func TestObjectsAndSubjects(t *testing.T) {
	g := paperGraph()
	s := g.Lookup("Avram Hershko")
	p := g.Lookup("wonPrize")
	objs := g.Objects(s, p)
	if len(objs) != 2 {
		t.Fatalf("Objects = %d prizes, want 2", len(objs))
	}
	o := g.Lookup("Nobel Prize in Chemistry")
	subs := g.Subjects(p, o)
	if len(subs) != 1 || subs[0] != s {
		t.Fatalf("Subjects(wonPrize, Nobel Prize) = %v, want [%d]", subs, s)
	}
}

func TestHasEdge(t *testing.T) {
	g := paperGraph()
	s := g.Lookup("Israel Institute of Technology")
	p := g.Lookup("locatedIn")
	o := g.Lookup("Haifa")
	if !g.HasEdge(s, p, o) {
		t.Fatal("HasEdge(IIT, locatedIn, Haifa) = false")
	}
	if g.HasEdge(o, p, s) {
		t.Fatal("HasEdge(Haifa, locatedIn, IIT) = true, want false")
	}
}

func TestInstancesOfDirect(t *testing.T) {
	g := paperGraph()
	cities := g.InstancesOf(g.Lookup("city"))
	if len(cities) != 2 {
		t.Fatalf("InstancesOf(city) = %d, want 2", len(cities))
	}
}

func TestTaxonomyClosure(t *testing.T) {
	g := New()
	g.AddSubclass("Nobel laureates in Chemistry", "chemist")
	g.AddSubclass("chemist", "scientist")
	g.AddSubclass("scientist", "person")
	g.AddType("Avram Hershko", "Nobel laureates in Chemistry")

	inst := g.Lookup("Avram Hershko")
	for _, cls := range []string{"Nobel laureates in Chemistry", "chemist", "scientist", "person"} {
		if !g.HasType(inst, g.Lookup(cls)) {
			t.Errorf("HasType(%s) = false, want true", cls)
		}
	}
	people := g.InstancesOf(g.Lookup("person"))
	if len(people) != 1 || people[0] != inst {
		t.Fatalf("InstancesOf(person) = %v", people)
	}
}

// TestBuiltGraphReadOnlyOnceRead: a built graph's first read freezes
// it, and from then on every mutator panics, as on a loaded snapshot.
func TestBuiltGraphReadOnlyOnceRead(t *testing.T) {
	g := paperGraph()
	if g.ReadOnly() {
		t.Fatal("a built graph is read-only before any read")
	}
	if g.Lookup("Haifa") == Invalid {
		t.Fatal("Lookup(Haifa) missed")
	}
	if !g.ReadOnly() {
		t.Fatal("a built graph is not read-only after its first Lookup")
	}
	haifa, city := g.Lookup("Haifa"), g.Lookup("city")
	for name, fn := range map[string]func(){
		"Intern":            func() { g.Intern("a") },
		"InternLiteral":     func() { g.InternLiteral("a") },
		"InternClass":       func() { g.InternClass("a") },
		"InternPred":        func() { g.InternPred("a") },
		"AddTriple":         func() { g.AddTriple("a", "b", "c") },
		"AddPropertyTriple": func() { g.AddPropertyTriple("a", "b", "c") },
		"AddTripleID":       func() { g.AddTripleID(haifa, haifa, city) },
		"AddType":           func() { g.AddType("a", "b") },
		"AddTypeID":         func() { g.AddTypeID(haifa, city) },
		"AddSubclass":       func() { g.AddSubclass("a", "b") },
		"AddSubclassID":     func() { g.AddSubclassID(city, city) },
		"ParseInto":         func() { g.ParseInto(strings.NewReader("<a> <b> <c> .\n")) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "read-only") {
					t.Errorf("%s on a read graph: recovered %q, want the read-only panic", name, msg)
				}
			}()
			fn()
		})
	}
	if g.NumTriples() != 8 || g.Lookup("a") != Invalid {
		t.Error("a mutator changed a read-only graph before panicking")
	}
}

func TestLiteralClass(t *testing.T) {
	g := paperGraph()
	lit := g.Lookup("1937-12-31")
	if lit == Invalid {
		t.Fatal("literal not interned")
	}
	if g.KindOf(lit) != KindLiteral {
		t.Fatalf("KindOf(literal) = %v", g.KindOf(lit))
	}
	if !g.HasType(lit, g.Lookup(LiteralClass)) {
		t.Fatal("literal should be member of the literal pseudo-class")
	}
	lits := g.InstancesOf(g.Lookup(LiteralClass))
	if len(lits) != 1 {
		t.Fatalf("InstancesOf(literal) = %d, want 1", len(lits))
	}
	inst := g.Lookup("Haifa")
	if g.HasType(inst, g.Lookup(LiteralClass)) {
		t.Fatal("instance must not be member of the literal class")
	}
}

func TestTaxonomyDepth(t *testing.T) {
	g := New()
	g.AddSubclass("a", "b")
	g.AddSubclass("b", "c")
	if d := g.TaxonomyDepth(g.Lookup("a")); d != 2 {
		t.Fatalf("depth(a) = %d, want 2", d)
	}
	if d := g.TaxonomyDepth(g.Lookup("c")); d != 0 {
		t.Fatalf("depth(c) = %d, want 0", d)
	}
}

func TestStatsCounters(t *testing.T) {
	g := paperGraph()
	if g.NumClasses() != 6 {
		t.Errorf("NumClasses = %d, want 6", g.NumClasses())
	}
	if g.NumTriples() != 8 {
		t.Errorf("NumTriples = %d, want 8", g.NumTriples())
	}
	// worksAt, wasBornIn, isCitizenOf, wonPrize, bornOnDate, locatedIn
	if g.NumPredicates() != 6 {
		t.Errorf("NumPredicates = %d, want 6", g.NumPredicates())
	}
}

func TestParseRoundTrip(t *testing.T) {
	g := paperGraph()
	g.AddSubclass("city", "location")
	// The text format has no escapes: quotes and backslashes inside a
	// literal are written and read back raw.
	g.AddPropertyTriple("Avram Hershko", "said", `say "hi"`)
	g.AddPropertyTriple("Avram Hershko", "homeDir", `C:\temp`)

	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	g2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g2.NumTriples() != g.NumTriples() {
		t.Errorf("triples: %d vs %d", g2.NumTriples(), g.NumTriples())
	}
	if g2.NumClasses() != g.NumClasses() {
		t.Errorf("classes: %d vs %d", g2.NumClasses(), g.NumClasses())
	}
	s := g2.Lookup("Avram Hershko")
	if s == Invalid {
		t.Fatal("entity lost in round trip")
	}
	if !g2.HasEdge(s, g2.Lookup("wasBornIn"), g2.Lookup("Karcag")) {
		t.Error("edge lost in round trip")
	}
	for _, name := range []string{"1937-12-31", `say "hi"`, `C:\temp`} {
		if lit := g2.Lookup(name); lit == Invalid || g2.KindOf(lit) != KindLiteral {
			t.Errorf("literal %q lost in round trip", name)
		}
	}
	if !g2.HasType(g2.Lookup("Haifa"), g2.Lookup("location")) {
		t.Error("taxonomy lost in round trip")
	}
}

func TestEncodeRejectsUnrepresentableNames(t *testing.T) {
	for _, build := range []func(*Graph){
		func(g *Graph) { g.AddTriple("a", "p", "two\nlines") },
		func(g *Graph) { g.AddPropertyTriple("a", "p", "two\nlines") },
		func(g *Graph) { g.AddTriple("a>b", "p", "c") },
		func(g *Graph) { g.AddType("a", "x>y") },
	} {
		g := New()
		build(g)
		var buf bytes.Buffer
		if err := g.Encode(&buf); err == nil {
			t.Errorf("Encode wrote an unrepresentable name:\n%s", buf.String())
		}
	}
	// A literal may hold '>': it is written between quotes.
	g := New()
	g.AddPropertyTriple("a", "p", "x>y")
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if g2, err := Parse(&buf); err != nil || g2.Lookup("x>y") == Invalid {
		t.Errorf("literal with '>' did not round-trip: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"<a> <b>",                     // missing object
		"<a <b> <c> .",                // unterminated subject
		"a <b> <c> .",                 // missing angle bracket
		`<a> <b> "unterminated .`,     // unterminated literal
		`<a> <type> "lit" .`,          // literal as class
		`<a> <subClassOf> "lit" .`,    // literal as superclass
		"<a> <b> <c> . extra-content", // trailing garbage after object
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q): want error, got nil", c)
		}
	}
}

func TestParseErrorReportsLineAndText(t *testing.T) {
	in := "# header\n<a> <r> <b> .\n<a> <r>\n"
	_, err := Parse(strings.NewReader(in))
	if err == nil {
		t.Fatal("Parse: want error on truncated line")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("Line = %d, want 3", pe.Line)
	}
	if pe.Text != "<a> <r>" {
		t.Errorf("Text = %q, want the offending line", pe.Text)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Errorf("Error() = %q, should mention the line number", pe.Error())
	}
}

func TestParseBadArity(t *testing.T) {
	cases := []string{
		"<a> .",                   // subject only
		"<a> <b> <c> <d> .",       // four terms
		"<only-subject>",          // no predicate, no dot
		"<a> <b> <c> . <d> <e> .", // two triples on one line
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q): want arity error, got nil", c)
		}
	}
}

func TestParseDuplicateClassEdge(t *testing.T) {
	in := "<city> <subClassOf> <location> .\n" +
		"<city> <subClassOf> <location> .\n" + // duplicate taxonomy edge
		"<Haifa> <type> <city> .\n" +
		"<Haifa> <type> <city> .\n" // duplicate type assertion
	g, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v (duplicate class edges must be tolerated)", err)
	}
	city := g.Lookup("city")
	if got := g.Superclasses(city); len(got) != 1 {
		t.Errorf("Superclasses(city) = %v, want exactly one edge", got)
	}
	if got := g.DirectTypes(g.Lookup("Haifa")); len(got) != 1 {
		t.Errorf("DirectTypes(Haifa) = %v, want exactly one class", got)
	}
}

func TestParseSkipsCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\n<a> <r> <b> .\n   \n# more\n"
	g, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g.NumTriples() != 1 {
		t.Fatalf("NumTriples = %d, want 1", g.NumTriples())
	}
}

func TestQuickInternRoundTrip(t *testing.T) {
	f := func(names []string) bool {
		g := New()
		ids := make([]ID, len(names))
		for i, name := range names {
			ids[i] = g.Intern(name)
		}
		for i, name := range names {
			if g.Name(ids[i]) != name || g.Lookup(name) != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTripleAlwaysQueryable(t *testing.T) {
	f := func(s, p, o uint8) bool {
		g := New()
		sn, pn, on := string('a'+rune(s%26)), string('p'+rune(p%5)), string('A'+rune(o%26))
		g.AddTriple(sn, pn, on)
		si, pi, oi := g.Lookup(sn), g.Lookup(pn), g.Lookup(on)
		if !g.HasEdge(si, pi, oi) {
			return false
		}
		objs := g.Objects(si, pi)
		found := false
		for _, x := range objs {
			if x == oi {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComputeStats(t *testing.T) {
	g := paperGraph()
	g.AddSubclass("city", "location")
	s := g.ComputeStats(3)
	if s.Classes != 7 { // 6 original + location
		t.Errorf("Classes = %d, want 7", s.Classes)
	}
	if s.Literals != 1 {
		t.Errorf("Literals = %d, want 1", s.Literals)
	}
	if s.Triples != g.NumTriples() {
		t.Errorf("Triples = %d", s.Triples)
	}
	if s.MaxTaxonomyDepth != 1 {
		t.Errorf("MaxTaxonomyDepth = %d, want 1", s.MaxTaxonomyDepth)
	}
	if s.SubclassAssertions != 1 {
		t.Errorf("SubclassAssertions = %d, want 1", s.SubclassAssertions)
	}
	if len(s.LargestClasses) != 3 {
		t.Fatalf("LargestClasses = %v", s.LargestClasses)
	}
	// location inherits city's two instances; city also has two.
	if s.LargestClasses[0].Size != 2 {
		t.Errorf("largest class size = %d, want 2", s.LargestClasses[0].Size)
	}
	if s.AvgOutDegree <= 0 {
		t.Errorf("AvgOutDegree = %v", s.AvgOutDegree)
	}
	if s.String() == "" {
		t.Error("empty Stats rendering")
	}
}

func TestComputeStatsEmptyGraph(t *testing.T) {
	s := New().ComputeStats(5)
	if s.Instances != 0 || s.Classes != 0 || s.Triples != 0 || s.AvgOutDegree != 0 {
		t.Errorf("empty graph stats = %+v", s)
	}
}

func TestTypesOf(t *testing.T) {
	g := New()
	g.AddSubclass("laureate", "person")
	g.AddType("Ann", "laureate")
	g.AddPropertyTriple("Ann", "bornOnDate", "1990-01-01")

	inst := g.Lookup("Ann")
	types := g.TypesOf(inst)
	if len(types) != 2 {
		t.Fatalf("TypesOf = %d classes, want 2 (laureate + person)", len(types))
	}
	lit := g.Lookup("1990-01-01")
	litTypes := g.TypesOf(lit)
	if len(litTypes) != 1 || g.Name(litTypes[0]) != LiteralClass {
		t.Fatalf("TypesOf(literal) = %v", litTypes)
	}
}

func TestPredicatesListing(t *testing.T) {
	g := paperGraph()
	preds := g.Predicates()
	if len(preds) != g.NumPredicates() {
		t.Fatalf("Predicates = %d, NumPredicates = %d", len(preds), g.NumPredicates())
	}
	for i := 1; i < len(preds); i++ {
		if preds[i-1] >= preds[i] {
			t.Fatal("Predicates not sorted")
		}
	}
}

func TestInOutEdges(t *testing.T) {
	g := paperGraph()
	hershko := g.Lookup("Avram Hershko")
	if len(g.Out(hershko)) != 6 {
		t.Fatalf("Out = %d edges, want 6", len(g.Out(hershko)))
	}
	haifa := g.Lookup("Haifa")
	if len(g.In(haifa)) != 1 {
		t.Fatalf("In(Haifa) = %d, want 1", len(g.In(haifa)))
	}
}
