package rules_test

import (
	"fmt"
	"reflect"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/rules"
	"detective/internal/similarity"
)

// diffCase is one rule set over one KB and the rows to evaluate it on.
type diffCase struct {
	name   string
	g      *kb.Graph
	schema *relation.Schema
	rules  []*rules.DR
	rows   []*relation.Tuple
	// scanEvery evaluates every scanEvery-th row in Scan mode too (the
	// basic algorithm's value-driven path, which scans class extents).
	scanEvery int
}

// injectedRows returns the rows perfbench serves from b: the dataset
// corrupted at rate 0.3 with 80% typos, under three seeds.
func injectedRows(b *dataset.Bundle) []*relation.Tuple {
	var rows []*relation.Tuple
	for seed := int64(1); seed <= 3; seed++ {
		inj := b.Inject(dataset.Noise{Rate: 0.3, TypoFrac: 0.8, Seed: seed})
		rows = append(rows, inj.Dirty.Tuples...)
	}
	return rows
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	var cs []diffCase
	for _, n := range []int{1069, 4000} {
		b := dataset.NewNobel(1, n)
		cs = append(cs, diffCase{fmt.Sprintf("nobel-%d", n), b.Yago, b.Schema, b.Rules, injectedRows(b), 64})
	}
	u := dataset.NewUIS(1, 1500)
	cs = append(cs, diffCase{"uis-1500", u.Yago, u.Schema, u.Rules, injectedRows(u), 64})

	g, schema, dr := pathFixture()
	var rows []*relation.Tuple
	for _, vals := range [][]string{
		{"Ann", "Springfield", "22222"},
		{"Ann", "Springfield", "11111"},
		{"Ann", "Springfield", "33333"},
		{"Ann", "Springfield", "11112"},
		{"Ann", "Shelbyville", "22222"},
		{"Bob", "Springfield", "11111"},
	} {
		rows = append(rows, relation.NewTuple(vals...))
	}
	cs = append(cs, diffCase{"path", g, schema, []*rules.DR{dr}, rows, 1})

	g, schema, dr = ambiguousFixture()
	rows = nil
	for _, vals := range [][]string{
		{"Ann Lex", "Pariss"},
		{"Ann Lex", "Paris"},
		{"Ann Lex", "Romee"},
		{"Ann Lee", "Pariss"},
		{"Ann Lee", "Rome"},
		{"Bob", "Paris"},
	} {
		rows = append(rows, relation.NewTuple(vals...))
	}
	cs = append(cs, diffCase{"ambiguous", g, schema, []*rules.DR{dr}, rows, 1})
	return cs
}

// ambiguousFixture: a typo'd name within ED 1 of two people, of whom
// only the first lives in a city a typo'd city matches. Evaluating
// ("Ann Lex", "Pariss") pins the edge-driven positive check's
// cumulative fuzzy test: the second evidence row matches nothing
// itself, yet joins the fuzzy rows because the first matched, and so
// makes the canonical name ambiguous.
func ambiguousFixture() (*kb.Graph, *relation.Schema, *rules.DR) {
	g := kb.New()
	g.AddType("Ann Lee", "person")
	g.AddType("Ann Lea", "person")
	g.AddType("Paris", "city")
	g.AddType("Rome", "city")
	g.AddTriple("Ann Lee", "livesIn", "Paris")
	g.AddTriple("Ann Lea", "livesIn", "Rome")
	schema := relation.NewSchema("R", "Name", "City")
	neg := rules.Node{Name: "n", Col: "City", Type: "city", Sim: similarity.Eq}
	dr := &rules.DR{
		Name:     "lives",
		Evidence: []rules.Node{{Name: "e", Col: "Name", Type: "person", Sim: similarity.EDK(1)}},
		Pos:      rules.Node{Name: "p", Col: "City", Type: "city", Sim: similarity.EDK(1)},
		Neg:      &neg,
		Edges: []rules.Edge{
			{From: "e", Rel: "livesIn", To: "p"},
			{From: "e", Rel: "bornIn", To: "n"},
		},
	}
	return g, schema, dr
}

// checkAgainstReference evaluates m and its reference on tu and
// reports any difference in any Outcome field. VerdictOn must equal
// the reference with the Witness dropped. It returns the verdict.
func checkAgainstReference(t *testing.T, ctx string, m *rules.Matcher, ref *rules.RefMatcher, g *kb.Graph, tu *relation.Tuple) rules.OutcomeKind {
	t.Helper()
	want := ref.EvaluateOn(g, tu)
	if got := m.EvaluateOn(g, tu); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: EvaluateOn(%q)\n got %+v\nwant %+v", ctx, tu.Values, got, want)
	}
	want.Witness = nil
	if got := m.VerdictOn(g, tu); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: VerdictOn(%q)\n got %+v\nwant %+v", ctx, tu.Values, got, want)
	}
	return want.Kind
}

// TestMatcherMatchesReference: the slot-addressed Matcher returns
// exactly the map-based reference's Outcome — kind, mark and repair
// columns, repairs in order, canonical cells and witness — on the
// benchmark's noisy Nobel and UIS rows and on the path-rule fixture,
// on the edge-driven path and on the value-driven (Scan) path.
func TestMatcherMatchesReference(t *testing.T) {
	for _, c := range diffCases(t) {
		cat := rules.NewCatalog(c.g)
		kinds := map[rules.OutcomeKind]int{}
		for _, dr := range c.rules {
			m, err := rules.NewMatcher(dr, cat, c.schema)
			if err != nil {
				t.Fatal(err)
			}
			sm, err := rules.NewMatcher(dr, cat, c.schema)
			if err != nil {
				t.Fatal(err)
			}
			sm.Scan = true
			ref, sref := rules.NewRefMatcher(m), rules.NewRefMatcher(sm)
			for i, tu := range c.rows {
				kinds[checkAgainstReference(t, c.name+"/"+dr.Name, m, ref, c.g, tu)]++
				if i%c.scanEvery == 0 {
					checkAgainstReference(t, c.name+"/"+dr.Name+"/scan", sm, sref, c.g, tu)
				}
			}
		}
		// The rows must exercise every verdict, or the comparison proves
		// little.
		for _, k := range []rules.OutcomeKind{rules.NoMatch, rules.Positive, rules.Repair} {
			if kinds[k] == 0 {
				t.Errorf("%s: no %v outcome among %d evaluations", c.name, k, len(c.rows)*len(c.rules))
			}
		}
	}
}
