package main

import (
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/relation"
)

var testAttrs = []string{"Name", "City"}

func testRequest() *request {
	return &request{
		body: []byte("Name,City\nAda,Lndon\nBob,Paris\n"),
		rows: 2,
		truth: []*relation.Tuple{
			relation.NewTuple("Ada", "London"),
			relation.NewTuple("Bob", "Paris"),
		},
	}
}

func TestOracleAcceptsRepairsToTruth(t *testing.T) {
	var res oracleResult
	checkResponse(testRequest(), []byte("Name,City\nAda+,London+\nBob+,Paris\n"), testAttrs, &res)
	// Three cells checked against truth: the repair and the two marks.
	if len(res.failures) != 0 || res.repaired != 1 || res.cells != 3 {
		t.Fatalf("good response: %+v", res)
	}
}

func TestOracleCatchesCorruptedCell(t *testing.T) {
	for name, body := range map[string]string{
		"repair to a wrong value":    "Name,City\nAda,Lisbon\nBob,Paris\n",
		"clean cell changed":         "Name,City\nAda,London\nBob,Pariss\n",
		"marked wrong value":         "Name,City\nAda,London\nBob,Rome+\n",
		"dirty cell marked correct":  "Name,City\nAda,Lndon+\nBob,Paris\n",
		"row dropped":                "Name,City\nAda,London\n",
		"wrong arity":                "Name,City\nAda,London,x\nBob,Paris\n",
		"header changed":             "Name,Town\nAda,London\nBob,Paris\n",
		"unterminated quoted string": "Name,City\nAda,\"London\nBob,Paris\n",
	} {
		var res oracleResult
		checkResponse(testRequest(), []byte(body), testAttrs, &res)
		if len(res.failures) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestOracleWithoutTruthChecksShapeOnly(t *testing.T) {
	r := testRequest()
	r.truth = nil
	var res oracleResult
	checkResponse(r, []byte("Name,City\nAda,Lisbon\nBob,Paris\n"), testAttrs, &res)
	if len(res.failures) != 0 || res.repaired != 1 {
		t.Fatalf("shape-only check: %+v", res)
	}
}

// The generated clean-cold inputs carry truth for every row, and the
// oracle passes the truth itself and catches one corrupted cell in it.
func TestOracleOnGeneratedRows(t *testing.T) {
	b := dataset.NewNobel(3, 200)
	keep := unambiguous(b.Yago, b.Rules, b.Truth)
	var rows []*relation.Tuple
	var idx []int
	for i, tu := range b.Truth.Tuples {
		if keep[i] {
			rows, idx = append(rows, tu), append(idx, i)
		}
	}
	if len(rows) < 10 {
		t.Fatalf("only %d of 200 rows in the oracle's scope", len(rows))
	}
	reqs := bodies(rows, idx, b.Truth, 10, "/clean")
	r := &reqs[0]
	var res oracleResult
	checkResponse(r, r.body, nobelSchema, &res)
	if len(res.failures) != 0 {
		t.Fatalf("unchanged response failed: %v", res.failures)
	}
	city := r.truth[3].Values[5]
	bad := strings.Replace(string(r.body), ","+city+"\n", ","+city+"x\n", 1)
	res = oracleResult{}
	checkResponse(r, []byte(bad), nobelSchema, &res)
	if len(res.failures) != 1 {
		t.Fatalf("corrupted city: failures %v", res.failures)
	}
}
