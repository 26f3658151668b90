package rules_test

import (
	"bytes"
	"os"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/rules"
)

// FuzzParseRules: every accepted rule text re-encodes to a fixed point.
// EncodeRules of the parsed rules must parse back, and encoding that
// parse must reproduce the same bytes, so no value (quotes, escapes,
// blanks, non-UTF-8 bytes) changes on a save/load cycle.
func FuzzParseRules(f *testing.F) {
	seed, err := os.ReadFile("../../testdata/e2e/rules.dr")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("rule \"a b\" {\n pos p col=\"A\" type=\"Nobel \\\"Peace\\\" Prize\"\n edge p \"r s\" p\n}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := rules.ParseRules(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc1 bytes.Buffer
		if err := rules.EncodeRules(&enc1, rs); err != nil {
			t.Fatalf("EncodeRules: %v", err)
		}
		rs2, err := rules.ParseRules(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("encoding does not parse back: %v\n%s", err, enc1.Bytes())
		}
		var enc2 bytes.Buffer
		if err := rules.EncodeRules(&enc2, rs2); err != nil {
			t.Fatalf("EncodeRules (second pass): %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\nfirst:\n%s\nsecond:\n%s", enc1.Bytes(), enc2.Bytes())
		}
	})
}

// FuzzEvaluate: on any cell values, every Matcher returns exactly the
// map-based reference's Outcome (witness included, and without it from
// VerdictOn), on the edge-driven and the value-driven (Scan) path. The
// KB and rules are fixed: the paper's running example (six columns),
// the path-rule fixture (the first three values) and the
// ambiguous-evidence fixture (the first two).
func FuzzEvaluate(f *testing.F) {
	ex := dataset.NewPaperExample()
	for _, tu := range ex.Dirty.Tuples {
		v := tu.Values
		f.Add(v[0], v[1], v[2], v[3], v[4], v[5])
	}
	f.Add("Ann", "Springfield", "22222", "", "", "")
	f.Add("Ann", "Springfield", "11112", "", "", "")
	f.Add("Ann Lex", "Pariss", "", "", "", "")

	type pair struct {
		m   *rules.Matcher
		ref *rules.RefMatcher
	}
	matchers := func(drs []*rules.DR, g *kb.Graph, schema *relation.Schema) []pair {
		cat := rules.NewCatalog(g)
		var ps []pair
		for _, dr := range drs {
			for _, scan := range []bool{false, true} {
				m, err := rules.NewMatcher(dr, cat, schema)
				if err != nil {
					f.Fatal(err)
				}
				m.Scan = scan
				ps = append(ps, pair{m, rules.NewRefMatcher(m)})
			}
		}
		return ps
	}
	paper := matchers(ex.Rules, ex.KB, ex.Schema)
	pg, pschema, pdr := pathFixture()
	path := matchers([]*rules.DR{pdr}, pg, pschema)
	ag, aschema, adr := ambiguousFixture()
	ambiguous := matchers([]*rules.DR{adr}, ag, aschema)

	f.Fuzz(func(t *testing.T, a, b, c, d, e, g string) {
		row := relation.NewTuple(a, b, c, d, e, g)
		for _, p := range paper {
			checkAgainstReference(t, p.m.Rule.Name, p.m, p.ref, ex.KB, row)
		}
		prow := relation.NewTuple(a, b, c)
		for _, p := range path {
			checkAgainstReference(t, p.m.Rule.Name, p.m, p.ref, pg, prow)
		}
		arow := relation.NewTuple(a, b)
		for _, p := range ambiguous {
			checkAgainstReference(t, p.m.Rule.Name, p.m, p.ref, ag, arow)
		}
	})
}

// FuzzBasicFast: on any cell values, bRepair (Algorithm 1) and fRepair
// (Algorithm 2, through the memo-on read-through every fast repair
// shares) reach the same marked tuple — the Church-Rosser property of
// §IV-A that lets fRepair stand in for bRepair. The KB and rules are
// fixed: the paper's running example (six columns) and the path-rule
// fixture (the first three values).
func FuzzBasicFast(f *testing.F) {
	ex := dataset.NewPaperExample()
	for _, tu := range append(ex.Dirty.Tuples, ex.Truth.Tuples...) {
		v := tu.Values
		f.Add(v[0], v[1], v[2], v[3], v[4], v[5])
	}
	f.Add("Ann", "Springfield", "22222", "", "", "")
	f.Add("Ann", "Springfield", "11112", "", "", "")

	paper, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		f.Fatal(err)
	}
	pg, pschema, pdr := pathFixture()
	path, err := repair.NewEngine([]*rules.DR{pdr}, pg, pschema)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g string) {
		for _, run := range []struct {
			e   *repair.Engine
			row *relation.Tuple
		}{
			{paper, relation.NewTuple(a, b, c, d, e, g)},
			{path, relation.NewTuple(a, b, c)},
		} {
			basic, fast := run.e.BasicRepair(run.row), run.e.FastRepair(run.row)
			if !basic.EqualMarked(fast) {
				t.Fatalf("%q: basic %v != fast %v", run.row.Values, basic, fast)
			}
		}
	})
}
