package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strings"

	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/rules"
)

// oracleResult is what checking the stored responses found.
type oracleResult struct {
	checked  int // responses parsed
	cells    int // cells compared against truth
	repaired int // cells the response changed
	failures []string
}

// checkResponse parses one /clean?marked=1 response to req and checks
// it: the header, one row per input row, the schema's arity in every
// row and, when req carries truth, that every cell the response changed
// or marked proven correct ('+') holds its ground-truth value. Detective
// rules promise precision 1.00 for both, so any other value is a
// failure.
func checkResponse(req *request, body []byte, attrs []string, res *oracleResult) {
	res.checked++
	in, err := readRows(req.body)
	if err != nil {
		res.failures = append(res.failures, "request body: "+err.Error())
		return
	}
	out, err := readRows(body)
	if err != nil {
		res.failures = append(res.failures, "response body: "+err.Error())
		return
	}
	if len(out) == 0 || strings.Join(out[0], ",") != strings.Join(attrs, ",") {
		res.failures = append(res.failures, "response header does not match the schema")
		return
	}
	in, out = in[1:], out[1:]
	if len(out) != len(in) {
		res.failures = append(res.failures, fmt.Sprintf("response has %d rows, request %d", len(out), len(in)))
		return
	}
	for i, row := range out {
		if len(row) != len(attrs) {
			res.failures = append(res.failures, fmt.Sprintf("row %d has %d fields, schema %d", i, len(row), len(attrs)))
			return
		}
		var truth *relation.Tuple
		if req.truth != nil {
			truth = req.truth[i]
		}
		for j, cell := range row {
			v, marked := strings.CutSuffix(cell, "+") // '+' marks a proven-correct cell
			changed := v != in[i][j]
			if changed {
				res.repaired++
			}
			if truth == nil || (!changed && !marked) {
				continue
			}
			res.cells++
			if v != truth.Values[j] {
				res.failures = append(res.failures, fmt.Sprintf("row %d column %s: %q returned as %q, truth %q",
					i, attrs[j], in[i][j], cell, truth.Values[j]))
			}
		}
	}
}

// unambiguous marks the truth rows the KB describes unambiguously: for
// every rule, each pattern edge between its evidence and positive nodes
// leads from the row's true value to exactly one object, the row's true
// value. Detective rules promise precision 1.00 only where the KB
// backs the truth; on other rows a correct value the KB does not know
// (a second employer, a missing fact) can be "repaired" to what the KB
// holds. The oracle scores those rows out, as the paper scores only
// tuples whose key resolves in the KB.
func unambiguous(g *kb.Graph, drs []*rules.DR, truth *relation.Table) []bool {
	keep := make([]bool, truth.Len())
	for i, t := range truth.Tuples {
		keep[i] = true
		for _, dr := range drs {
			nodes := map[string]rules.Node{dr.Pos.Name: dr.Pos}
			for _, n := range dr.Evidence {
				nodes[n.Name] = n
			}
			for _, e := range dr.Edges {
				from, okF := nodes[e.From]
				to, okT := nodes[e.To]
				if !okF || !okT {
					continue // an edge of the negative node
				}
				s := g.Lookup(t.Values[truth.Schema.Col(from.Col)])
				o := g.Lookup(t.Values[truth.Schema.Col(to.Col)])
				p := g.Lookup(e.Rel)
				if s == kb.Invalid || o == kb.Invalid || p == kb.Invalid {
					keep[i] = false
					continue
				}
				if objs := g.Objects(s, p); len(objs) != 1 || objs[0] != o {
					keep[i] = false
				}
			}
		}
	}
	return keep
}

func readRows(data []byte) ([][]string, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	return cr.ReadAll()
}
