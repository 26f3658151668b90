package repair_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/rules"
)

func streamEngine(t *testing.T) (*dataset.PaperExample, *repair.Engine) {
	t.Helper()
	ex := dataset.NewPaperExample()
	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return ex, e
}

// failWriter errors on every write, standing in for a closed pipe or
// a full disk on the output side of the stream.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink failed") }

// errReader yields some good CSV and then a read error, standing in
// for a network stream that dies mid-transfer.
type errReader struct {
	data []byte
	err  error
	pos  int
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, r.err
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

func TestCleanCSVStreamShortRecord(t *testing.T) {
	_, e := streamEngine(t)
	in := "Name,DOB,Country,Prize,Institution,City\n" +
		"Avram Hershko,1937-12-31,Hungary,Chemistry 2004,Technion,Haifa\n" +
		"only,three,fields\n"
	var out bytes.Buffer
	n, err := e.CleanCSVStream(strings.NewReader(in), &out, false)
	if err == nil {
		t.Fatal("want error for short record")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name the offending line", err)
	}
	if n != 1 {
		t.Errorf("rows cleaned before failure = %d, want 1", n)
	}
}

func TestCleanCSVStreamLongRecord(t *testing.T) {
	_, e := streamEngine(t)
	in := "Name,DOB,Country,Prize,Institution,City\n" +
		"a,b,c,d,e,f,EXTRA\n"
	var out bytes.Buffer
	if _, err := e.CleanCSVStream(strings.NewReader(in), &out, false); err == nil {
		t.Fatal("want error for over-long record")
	}
}

func TestCleanCSVStreamBadHeader(t *testing.T) {
	_, e := streamEngine(t)
	cases := map[string]string{
		"empty input":    "",
		"wrong arity":    "A,B\n1,2\n",
		"wrong names":    "X,DOB,Country,Prize,Institution,City\na,b,c,d,e,f\n",
		"shuffled order": "DOB,Name,Country,Prize,Institution,City\na,b,c,d,e,f\n",
	}
	for name, in := range cases {
		var out bytes.Buffer
		n, err := e.CleanCSVStream(strings.NewReader(in), &out, false)
		if err == nil {
			t.Errorf("%s: want error", name)
		}
		if n != 0 {
			t.Errorf("%s: rows = %d, want 0", name, n)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote %d bytes despite header rejection", name, out.Len())
		}
	}
}

func TestCleanCSVStreamWriterError(t *testing.T) {
	ex, e := streamEngine(t)
	var in bytes.Buffer
	if err := ex.Dirty.WriteCSV(&in); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CleanCSVStream(&in, failWriter{}, true); err == nil {
		t.Fatal("want error from failing writer")
	}
}

func TestCleanCSVStreamReaderError(t *testing.T) {
	_, e := streamEngine(t)
	r := &errReader{
		data: []byte("Name,DOB,Country,Prize,Institution,City\n" +
			"Avram Hershko,1937-12-31,Hungary,Chemistry 2004,Technion,Haifa\n"),
		err: errors.New("stream died"),
	}
	var out bytes.Buffer
	n, err := e.CleanCSVStream(r, &out, false)
	if err == nil {
		t.Fatal("want error from failing reader")
	}
	if n != 1 {
		t.Errorf("rows cleaned before failure = %d, want 1", n)
	}
}

// TestCleanCSVStreamMatchesFastRepair pins the in-place streaming path
// to the reference per-tuple API: every streamed row must equal
// FastRepair of the same record, marks included.
func TestCleanCSVStreamMatchesFastRepair(t *testing.T) {
	ex, e := streamEngine(t)
	var in bytes.Buffer
	if err := ex.Dirty.WriteCSV(&in); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	n, err := e.CleanCSVStream(&in, &out, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != ex.Dirty.Len() {
		t.Fatalf("rows = %d, want %d", n, ex.Dirty.Len())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != n+1 {
		t.Fatalf("output has %d lines, want %d", len(lines), n+1)
	}
	for i, tu := range ex.Dirty.Tuples {
		want := e.FastRepair(tu)
		cells := strings.Split(lines[i+1], ",")
		for j, v := range want.Values {
			expect := v
			if want.Marked[j] {
				expect += "+"
			}
			if cells[j] != expect {
				t.Errorf("row %d col %d: %q, want %q", i, j, cells[j], expect)
			}
		}
	}
}

// streamCase is one (rules, KB, schema) triple plus a dirty CSV input
// the stream is checked over.
type streamCase struct {
	name   string
	rules  []*rules.DR
	kb     *kb.Graph
	schema *relation.Schema
	input  string
}

func tableCSV(t *testing.T, tb *relation.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func streamCases(t *testing.T) []streamCase {
	t.Helper()
	var cases []streamCase

	ex := dataset.NewPaperExample()
	cases = append(cases, streamCase{"paper-example", ex.Rules, ex.KB, ex.Schema, tableCSV(t, ex.Dirty)})

	nb := dataset.NewNobel(3, 150)
	nbInj := nb.Inject(dataset.Noise{Rate: 0.15, TypoFrac: 0.5, Seed: 3})
	cases = append(cases, streamCase{"nobel-seed3", nb.Rules, nb.Yago, nb.Schema, tableCSV(t, nbInj.Dirty)})

	uis := dataset.NewUIS(7, 250)
	uisInj := uis.Inject(dataset.Noise{Rate: 0.12, TypoFrac: 0.3, Seed: 7})
	cases = append(cases, streamCase{"uis-seed7", uis.Rules, uis.Yago, uis.Schema, tableCSV(t, uisInj.Dirty)})

	return cases
}

// cleanStream runs one streaming clean on a fresh engine built with
// opts and returns the output bytes and accounting.
func cleanStream(t *testing.T, tc streamCase, opts repair.Options, marked bool) (string, repair.StreamResult, error) {
	t.Helper()
	e, err := repair.NewEngineWithOptions(tc.rules, tc.kb, tc.schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, serr := e.CleanCSVStreamContext(context.Background(), strings.NewReader(tc.input), &out, marked)
	return out.String(), res, serr
}

// requireSameOutput fails t at the first line where got differs from
// want.
func requireSameOutput(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range wl {
		if i >= len(gl) {
			t.Fatalf("%s: output ends before line %d\nwant %q", what, i, wl[i])
		}
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n got %q\nwant %q", what, i, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: output has %d lines, want %d", what, len(gl), len(wl))
}

// streamFunc is the shape of an engine's stream entry points,
// CleanCSVStreamContext and CleanCSVStreamEnsembleContext.
type streamFunc func(ctx context.Context, r io.Reader, w io.Writer, marked bool) (repair.StreamResult, error)

// streamConcurrently runs n streams of input through clean at once and
// returns each one's output, accounting and error.
func streamConcurrently(clean streamFunc, input string, n int, marked bool) ([]string, []repair.StreamResult, []error) {
	outs := make([]string, n)
	ress := make([]repair.StreamResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			ress[s], errs[s] = clean(context.Background(), strings.NewReader(input), &out, marked)
			outs[s] = out.String()
		}()
	}
	wg.Wait()
	return outs, ress, errs
}

// TestCleanCSVStreamMatchesTable pins the stream to the table path:
// tuples are repaired independently (§V-B), so streaming a CSV must
// write exactly the bytes RepairTableContext followed by
// WriteMarkedCSV writes, and report the same quarantine and
// step-budget counts, at the default budget and at a starved one that
// degrades rows to keep-original-value.
func TestCleanCSVStreamMatchesTable(t *testing.T) {
	budgets := []struct {
		name  string
		steps int
	}{{"default-budget", 0}, {"step-budget=1", 1}}
	for _, tc := range streamCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := relation.ReadCSV(tc.schema.Name, strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range budgets {
				t.Run(b.name, func(t *testing.T) {
					opts := repair.Options{StepBudget: b.steps}
					got, res, err := cleanStream(t, tc, opts, true)
					if err != nil {
						t.Fatalf("stream: %v", err)
					}
					e, err := repair.NewEngineWithOptions(tc.rules, tc.kb, tc.schema, opts)
					if err != nil {
						t.Fatal(err)
					}
					repaired, stats, err := e.RepairTableContext(context.Background(), tb, 0)
					if err != nil {
						t.Fatalf("table: %v", err)
					}
					var want bytes.Buffer
					if err := repaired.WriteMarkedCSV(&want); err != nil {
						t.Fatal(err)
					}
					requireSameOutput(t, "stream vs table", got, want.String())
					if res.Rows != tb.Len() ||
						int64(res.Quarantined) != stats.Quarantined ||
						int64(res.BudgetExhausted) != stats.BudgetExhausted {
						t.Fatalf("stream %+v, table %+v over %d rows", res, stats, tb.Len())
					}
					if b.steps == 1 && res.BudgetExhausted == 0 {
						t.Fatal("the starved budget exhausted no row")
					}
				})
			}
		})
	}
}

// TestCleanCSVStreamDedup feeds a duplicate-heavy stream (each source
// row repeated in a burst, as in the UIS-style duplicate generators)
// and locks down the dedup accounting: with the global memo each
// memo-served row counts exactly once in Deduped; with the memo
// disabled nothing is served from a cache. Either way the output bytes
// are the same.
func TestCleanCSVStreamDedup(t *testing.T) {
	ex := dataset.NewPaperExample()
	dup := &relation.Table{Schema: ex.Schema}
	for _, tu := range ex.Dirty.Tuples {
		for r := 0; r < 5; r++ {
			dup.Tuples = append(dup.Tuples, tu.Clone())
		}
	}
	tc := streamCase{"dup", ex.Rules, ex.KB, ex.Schema, tableCSV(t, dup)}
	// 5 copies of each of 4 rows: two cold repairs each (the first is
	// declined by the memo's doorkeeper, the second admits the row),
	// 12 served rows.
	const wantDeduped = 12

	want, wantRes, err := cleanStream(t, tc, repair.Options{MemoDisabled: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("memo", func(t *testing.T) {
		got, gotRes, err := cleanStream(t, tc, repair.Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("memo-served output differs from the memo-disabled stream:\n%s\nwant:\n%s", got, want)
		}
		if gotRes.Rows != wantRes.Rows {
			t.Fatalf("Rows = %d, want %d", gotRes.Rows, wantRes.Rows)
		}
		if gotRes.Deduped != wantDeduped {
			t.Errorf("Deduped = %d, want %d", gotRes.Deduped, wantDeduped)
		}
	})
	t.Run("no-memo", func(t *testing.T) {
		if wantRes.Deduped != 0 {
			t.Errorf("Deduped = %d, want 0", wantRes.Deduped)
		}
	})
}

// TestCleanCSVStreamPartialOnBadRecord checks a mid-stream input failure:
// every row before the bad record is cleaned, flushed and counted
// exactly as a clean stream of those rows alone would write it, and
// the error arrives as a *PartialError naming the offending line.
func TestCleanCSVStreamPartialOnBadRecord(t *testing.T) {
	ex := dataset.NewPaperExample()
	prefix := streamCase{"prefix", ex.Rules, ex.KB, ex.Schema, tableCSV(t, ex.Dirty)}
	want, _, err := cleanStream(t, prefix, repair.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	tc := prefix
	tc.input += "only,three,fields\n"
	got, res, err := cleanStream(t, tc, repair.Options{}, true)
	var pe *repair.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("line %d", ex.Dirty.Len()+2)) {
		t.Errorf("error %q does not name the offending line", err)
	}
	if pe.Done != ex.Dirty.Len() || res.Rows != ex.Dirty.Len() {
		t.Errorf("Done = %d, Rows = %d, want %d", pe.Done, res.Rows, ex.Dirty.Len())
	}
	if got != want {
		t.Errorf("partial output differs from the clean prefix:\n%s\nwant:\n%s", got, want)
	}
}

// TestCleanCSVStreamHeaderOnly: a header-only stream must produce a
// header-only output and no error.
func TestCleanCSVStreamHeaderOnly(t *testing.T) {
	ex := dataset.NewPaperExample()
	tc := streamCase{"empty", ex.Rules, ex.KB, ex.Schema,
		strings.Join(ex.Schema.Attrs, ",") + "\n"}
	out, res, err := cleanStream(t, tc, repair.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 {
		t.Errorf("Rows = %d, want 0", res.Rows)
	}
	if strings.TrimSpace(out) != strings.Join(ex.Schema.Attrs, ",") {
		t.Errorf("output = %q", out)
	}
}
