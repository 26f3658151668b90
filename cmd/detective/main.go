// Command detective cleans a CSV relation using detective rules and a
// knowledge base:
//
//	detective -kb kb.nt -rules rules.dr -in dirty.csv -out clean.csv
//
// The KB file uses the line-oriented triple format (see package kb);
// the rules file uses the textual rule format (see package rules).
// With -marked, positively proven cells carry a "+" suffix in the
// output, as in the paper's worked examples. -basic selects the
// chase-style Algorithm 1 instead of the fast engine, and
// -check-consistency verifies the Church-Rosser property on the input
// before cleaning.
//
// -stream cleans row by row without materializing the table — the
// mode for inputs larger than memory — deriving the schema from the
// CSV header; its output is byte-identical to the table mode's.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"detective"
	"detective/internal/relation"
	"detective/internal/repair"
	"detective/internal/repair/ensemble"
	"detective/internal/repair/ensemble/adapters"
)

func main() {
	kbPath := flag.String("kb", "", "knowledge base file (triple format)")
	rulesPath := flag.String("rules", "", "detective rules file")
	inPath := flag.String("in", "", "input CSV (first row is the header)")
	outPath := flag.String("out", "", "output CSV (default: stdout)")
	name := flag.String("name", "table", "relation name")
	marked := flag.Bool("marked", false, "suffix positively proven cells with '+'")
	basic := flag.Bool("basic", false, "use the basic (Algorithm 1) repair engine")
	checkConsistency := flag.Bool("check-consistency", false, "verify the rule set is consistent on the input data first")
	explain := flag.Bool("explain", false, "print each rule application with its KB witness to stderr")
	usage := flag.Bool("usage", false, "print the per-rule usage report to stderr")
	versions := flag.Bool("versions", false, "emit every multi-version repair fixpoint (one output row per version)")
	stream := flag.Bool("stream", false, "clean row by row without materializing the table (bounded memory)")
	memoBytes := flag.Int64("memo-bytes", 0, "byte budget of the repair memo serving repeated rows from cache (0 = default 48 MiB, negative = off)")
	noMemo := flag.Bool("no-memo", false, "disable the repair memo")
	ensembleOn := flag.Bool("ensemble", false, "with -stream: repair by the weighted vote of all engines (detective, KATARA, FD, constant CFD) and append a confidence column")
	ensembleRef := flag.String("ensemble-ref", "", "with -ensemble: clean reference CSV the FD and constant-CFD proposers are mined from")
	ensembleThreshold := flag.Float64("ensemble-threshold", 0, "with -ensemble: acceptance threshold on a cell's winning confidence (0 = default)")
	flag.Parse()

	if *kbPath == "" || *rulesPath == "" || *inPath == "" {
		fmt.Fprintln(os.Stderr, "usage: detective -kb KB -rules RULES -in CSV [-out CSV] [-marked] [-basic] [-stream] [-check-consistency]")
		os.Exit(2)
	}

	g := parseKB(*kbPath)
	rs := parseRules(*rulesPath)

	if *ensembleOn && !*stream {
		fmt.Fprintln(os.Stderr, "detective: -ensemble requires -stream")
		os.Exit(2)
	}

	if *stream {
		for _, f := range []struct {
			set  bool
			name string
		}{{*basic, "-basic"}, {*explain, "-explain"}, {*usage, "-usage"}, {*versions, "-versions"}, {*checkConsistency, "-check-consistency"}} {
			if f.set {
				fmt.Fprintf(os.Stderr, "detective: %s needs the materialized table and cannot combine with -stream\n", f.name)
				os.Exit(2)
			}
		}
		streamClean(g, rs, *name, *inPath, *outPath, *marked,
			detective.EngineOptions{MemoBytes: *memoBytes, MemoDisabled: *noMemo},
			*ensembleOn, *ensembleRef, *ensembleThreshold)
		return
	}

	tb := readCSV(*name, *inPath)

	c, err := detective.NewCleanerWithOptions(rs, g, tb.Schema,
		detective.EngineOptions{MemoBytes: *memoBytes, MemoDisabled: *noMemo})
	fail(err)

	if *checkConsistency {
		for _, w := range detective.AnalyzeRules(rs) {
			fmt.Fprintf(os.Stderr, "detective: static warning: %v\n", w)
		}
		if vs := c.CheckConsistency(tb, 0); len(vs) > 0 {
			fmt.Fprintf(os.Stderr, "detective: rule set is inconsistent on this data (%d order-dependent tuples):\n", len(vs))
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "  %v\n", v)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "detective: rule set is consistent on this data")
	}

	var cleaned *detective.Table
	switch {
	case *versions:
		// Multi-version repairs (§IV-C): a tuple with several equally
		// valid fixpoints becomes several output rows.
		cleaned = &detective.Table{Schema: tb.Schema}
		multi := 0
		for _, t := range tb.Tuples {
			vs := c.CleanVersions(t)
			if len(vs) > 1 {
				multi++
			}
			cleaned.Tuples = append(cleaned.Tuples, vs...)
		}
		if multi > 0 {
			fmt.Fprintf(os.Stderr, "detective: %d tuples have multiple repair versions\n", multi)
		}
	case *usage:
		var report detective.UsageReport
		cleaned, report = c.CleanTableWithUsage(tb)
		fmt.Fprint(os.Stderr, report)
	case *explain:
		cleaned = &detective.Table{Schema: tb.Schema}
		for i, t := range tb.Tuples {
			repaired, steps := c.Explain(t)
			cleaned.Tuples = append(cleaned.Tuples, repaired)
			for _, s := range steps {
				fmt.Fprintf(os.Stderr, "tuple %d: %s\n", i+1, s)
			}
		}
	case *basic:
		cleaned = &detective.Table{Schema: tb.Schema}
		for _, t := range tb.Tuples {
			cleaned.Tuples = append(cleaned.Tuples, c.CleanBasic(t))
		}
	default:
		cleaned = c.CleanTable(tb)
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		fail(err)
		defer f.Close()
		out = f
	}
	if *marked {
		fail(cleaned.WriteMarkedCSV(out))
	} else {
		fail(cleaned.WriteCSV(out))
	}

	if cleaned.Len() == tb.Len() {
		changed := len(tb.Diff(cleaned))
		fmt.Fprintf(os.Stderr, "detective: %d tuples, %d cells repaired, %d cells marked correct\n",
			cleaned.Len(), changed, cleaned.NumMarked())
	} else {
		fmt.Fprintf(os.Stderr, "detective: %d input tuples -> %d output rows (multi-version), %d cells marked correct\n",
			tb.Len(), cleaned.Len(), cleaned.NumMarked())
	}
}

// streamClean cleans inPath row by row via Cleaner.CleanCSVStream:
// only the header is pre-read (to build the schema), so memory stays
// bounded by one row plus the repair memo's byte budget regardless of
// the input size.
func streamClean(g *detective.KB, rs []*detective.Rule, name, inPath, outPath string, marked bool, opts detective.EngineOptions, ensOn bool, ensRef string, ensThreshold float64) {
	f, err := os.Open(inPath)
	fail(err)
	defer f.Close()

	// Peel off the header line to learn the attributes, then stitch it
	// back so the streaming cleaner sees the full document. (A header
	// with quoted embedded newlines would defeat the line split; real
	// CSV headers are single-line.)
	br := bufio.NewReader(f)
	header, err := readHeader(br)
	if err != nil {
		fail(fmt.Errorf("reading header of %s: %w", inPath, err))
	}
	_, attrs, err := relation.ReadCSVHeader(strings.NewReader(header))
	fail(err)
	schema := detective.NewSchema(name, attrs...)

	var c *detective.Cleaner
	if ensOn {
		// The auxiliary proposers read the KB through the same store
		// the cleaner serves from; the KATARA proposer's table pattern
		// is derived from the rule set itself.
		store := detective.NewKBStore(g)
		var ref *detective.Table
		if ensRef != "" {
			ref, err = adapters.LoadReference(schema, ensRef)
			fail(err)
		}
		opts.Ensemble = repair.EnsembleOptions{
			Enabled:   true,
			Threshold: ensThreshold,
			Proposers: adapters.BuildProposers(schema, ensemble.PatternFromRules(rs), store, ref),
		}
		c, err = detective.NewCleanerStore(rs, store, schema, opts)
	} else {
		c, err = detective.NewCleanerWithOptions(rs, g, schema, opts)
	}
	fail(err)

	out := os.Stdout
	if outPath != "" {
		of, err := os.Create(outPath)
		fail(err)
		defer of.Close()
		out = of
	}

	in := io.MultiReader(strings.NewReader(header+"\n"), br)
	var res detective.StreamStats
	if ensOn {
		res, err = c.CleanCSVStreamEnsemble(context.Background(), in, out, marked)
	} else {
		res, err = c.CleanCSVStream(context.Background(), in, out, marked)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "detective: partial result, %d rows written: %v\n", res.Rows, err)
		os.Exit(1)
	}
	if ensOn {
		mean := 1.0
		if res.Rows > 0 {
			mean = res.ConfidenceSum / float64(res.Rows)
		}
		fmt.Fprintf(os.Stderr, "detective: %d rows streamed (%d quarantined, %d budget-degraded, %d deduped; confidence mean %.3f min %.3f, %d below threshold)\n",
			res.Rows, res.Quarantined, res.BudgetExhausted, res.Deduped, mean, res.MinConfidence, res.BelowThreshold)
		return
	}
	fmt.Fprintf(os.Stderr, "detective: %d rows streamed (%d quarantined, %d budget-degraded, %d deduped)\n",
		res.Rows, res.Quarantined, res.BudgetExhausted, res.Deduped)
}

// readHeader peels the first line off br without its terminator,
// tolerating CR-only line endings (where scanning for '\n' would
// swallow the whole file as one "header"). A UTF-8 BOM stays in the
// line; relation.ReadCSVHeader drops it.
func readHeader(br *bufio.Reader) (string, error) {
	var sb strings.Builder
	for {
		c, err := br.ReadByte()
		if err == io.EOF {
			if sb.Len() == 0 {
				return "", io.ErrUnexpectedEOF
			}
			return sb.String(), nil
		}
		if err != nil {
			return "", err
		}
		switch c {
		case '\n':
			return sb.String(), nil
		case '\r':
			// CRLF or bare CR both terminate the header; fold a
			// following LF into the terminator.
			if b, err := br.Peek(1); err == nil && b[0] == '\n' {
				_, _ = br.Discard(1)
			}
			return sb.String(), nil
		default:
			sb.WriteByte(c)
		}
	}
}

func parseKB(path string) *detective.KB {
	f, err := os.Open(path)
	fail(err)
	defer f.Close()
	g, err := detective.ParseKB(f)
	fail(err)
	return g
}

func parseRules(path string) []*detective.Rule {
	f, err := os.Open(path)
	fail(err)
	defer f.Close()
	rs, err := detective.ParseRules(f)
	fail(err)
	return rs
}

func readCSV(name, path string) *detective.Table {
	f, err := os.Open(path)
	fail(err)
	defer f.Close()
	tb, err := detective.ReadCSV(name, f)
	fail(err)
	return tb
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "detective:", err)
		os.Exit(1)
	}
}
