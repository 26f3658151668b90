package repair_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/repair"
)

// FuzzCleanCSVStream fuzzes the /clean body decoder. The harness
// writes the schema header, after a UTF-8 byte order mark when bom is
// set, then the fuzz bytes, and streams the document four times: three
// times on a memo-on engine shared by every input, and once on a
// memo-off engine. On the memo-on engine the second run inserts the
// rows the doorkeeper has now seen twice, and the third replays them
// from the memo. Each run must end cleanly or with a *PartialError
// whose Done equals Rows, and all of them must write the same bytes
// and report the same Rows, Quarantined and BudgetExhausted: memo on ≡
// off, and replay ≡ fresh. A document with the mark must also stream
// exactly as it does without.
func FuzzCleanCSVStream(f *testing.F) {
	b := dataset.NewNobel(7, 64)
	memoOn, err := repair.NewEngine(b.Rules, b.Yago, b.Schema)
	if err != nil {
		f.Fatal(err)
	}
	memoOff, err := repair.NewEngineWithOptions(b.Rules, b.Yago, b.Schema, repair.Options{MemoDisabled: true})
	if err != nil {
		f.Fatal(err)
	}
	header := strings.Join(b.Schema.Attrs, ",") + "\n"

	// Seeds: dirty rows of the same bundle, the checked-in Zipf sample
	// (Nobel seed 7 as well), each without its header line, and the
	// framing variants a /clean body may carry.
	inj := b.Inject(dataset.Noise{Rate: 0.3, TypoFrac: 0.5, Seed: 7})
	var dirty bytes.Buffer
	if err := inj.Dirty.WriteCSV(&dirty); err != nil {
		f.Fatal(err)
	}
	rows := strings.SplitAfterN(dirty.String(), "\n", 10)
	body := strings.Join(rows[1:len(rows)-1], "")
	sample, err := os.ReadFile("../../testdata/zipf_sample.csv")
	if err != nil {
		f.Fatal(err)
	}
	_, sampleBody, _ := strings.Cut(string(sample), "\n")
	f.Add(false, []byte(body))
	f.Add(false, []byte(sampleBody))
	f.Add(false, []byte("\ufeff"+rows[1]))
	f.Add(false, []byte(strings.ReplaceAll(body, "\n", "\r\n")))
	f.Add(false, []byte(strings.ReplaceAll(body, "\n", "\r")))
	f.Add(false, []byte(`"Marie ""Sklodowska"" Curie",1867-11-07,"Pol""and",Nobel Prize in Physics,"University of Paris",Paris`+"\n"))
	f.Add(true, []byte(body))

	type run struct {
		out string
		res repair.StreamResult
	}
	clean := func(t *testing.T, e *repair.Engine, in string) run {
		var out bytes.Buffer
		res, err := e.CleanCSVStreamContext(context.Background(), strings.NewReader(in), &out, true)
		if err != nil {
			var pe *repair.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want nil or *PartialError", err)
			}
			if pe.Done != res.Rows {
				t.Fatalf("PartialError.Done = %d, Rows = %d", pe.Done, res.Rows)
			}
		}
		return run{out.String(), res}
	}
	f.Fuzz(func(t *testing.T, bom bool, data []byte) {
		in := header + string(data)
		if bom {
			in = "\ufeff" + in
		}
		fresh := clean(t, memoOn, in)
		type variant struct {
			name string
			e    *repair.Engine
			in   string
		}
		runs := []variant{{"memo admit", memoOn, in}, {"memo replay", memoOn, in}, {"memo off", memoOff, in}}
		if bom {
			runs = append(runs, variant{"without the BOM", memoOff, in[len("\ufeff"):]})
		}
		for _, r := range runs {
			got := clean(t, r.e, r.in)
			if got.out != fresh.out {
				t.Fatalf("%s: output differs from the first memo-on run\n got %q\nwant %q", r.name, got.out, fresh.out)
			}
			if got.res.Rows != fresh.res.Rows ||
				got.res.Quarantined != fresh.res.Quarantined ||
				got.res.BudgetExhausted != fresh.res.BudgetExhausted {
				t.Fatalf("%s: result %+v, first memo-on run %+v", r.name, got.res, fresh.res)
			}
		}
	})
}
