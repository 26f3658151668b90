package repair

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"detective/internal/relation"
)

// flushEvery is how many cleaned rows the streaming cleaner buffers
// before forcing the csv.Writer through to the sink. Keeping it small
// bounds both memory and the staleness of partial output: whatever was
// cleaned before a mid-stream failure has already been flushed.
const flushEvery = 64

// StreamResult is the per-call accounting of one streaming clean.
type StreamResult struct {
	// Rows is the number of rows written to the sink (cleaned,
	// quarantined and degraded rows alike).
	Rows int
	// Quarantined counts rows whose repair panicked and were emitted
	// unchanged.
	Quarantined int
	// BudgetExhausted counts rows that exceeded the fixpoint step
	// budget and were emitted unchanged.
	BudgetExhausted int
	// Deduped counts rows answered from the global cross-request memo
	// instead of being recomputed (always 0 with the memo disabled).
	// Each served row is counted exactly once, and still counts in
	// Rows and in the outcome tallies above.
	Deduped int

	// Ensemble-mode confidence accounting (zero on single-engine
	// streams): ConfidenceSum is the sum of per-row confidences (mean
	// = ConfidenceSum/Rows), MinConfidence the minimum over all rows
	// (1 when no row was contested), and BelowThreshold the number of
	// rows whose confidence fell below the acceptance threshold —
	// rows carrying at least one detect-only degraded cell.
	ConfidenceSum  float64
	MinConfidence  float64
	BelowThreshold int
}

// CleanCSVStream cleans CSV row by row without materializing the
// table — the shape needed for inputs larger than memory (the paper's
// engine is embarrassingly per-tuple, §V-B, so a caller wanting more
// cores splits the input across concurrent streams). The first record
// must be a header matching the engine's schema; a UTF-8 byte order
// mark in front of it is dropped (relation.ReadCSVHeader). Marked
// cells get a "+" suffix when marked is true. It returns the number of
// rows cleaned.
func (e *Engine) CleanCSVStream(r io.Reader, w io.Writer, marked bool) (int, error) {
	res, err := e.CleanCSVStreamContext(context.Background(), r, w, marked)
	return res.Rows, err
}

// CleanCSVStreamContext is CleanCSVStream with cancellation, panic
// quarantine, and per-call accounting. Between rows it checks ctx and
// stops promptly when the context is done. Any mid-stream failure —
// cancellation, a CSV parse error, a read error, a sink write error —
// returns a *PartialError whose Done field equals Rows: every row
// cleaned before the failure has already been flushed to w. Header
// validation errors are returned plain (nothing was written). A row
// whose repair panics or exhausts the step budget is emitted
// unchanged and tallied, not treated as a failure.
func (e *Engine) CleanCSVStreamContext(ctx context.Context, r io.Reader, w io.Writer, marked bool) (StreamResult, error) {
	return e.cleanCSVStream(ctx, r, w, marked, false)
}

// CleanCSVStreamEnsembleContext is the ensemble-mode streaming clean:
// every row is repaired by the weighted vote over the detective
// engine and the configured auxiliary proposers, and the output CSV
// carries one extra trailing "confidence" column holding the row's
// confidence (three decimals). Error and flush semantics match
// CleanCSVStreamContext. It errors when the engine was built without
// Options.Ensemble.Enabled.
func (e *Engine) CleanCSVStreamEnsembleContext(ctx context.Context, r io.Reader, w io.Writer, marked bool) (StreamResult, error) {
	if e.ens == nil {
		return StreamResult{}, fmt.Errorf("repair: ensemble mode not enabled on this engine")
	}
	return e.cleanCSVStream(ctx, r, w, marked, true)
}

func (e *Engine) cleanCSVStream(ctx context.Context, r io.Reader, w io.Writer, marked, ens bool) (StreamResult, error) {
	var res StreamResult
	cr, header, err := relation.ReadCSVHeader(r)
	if err != nil {
		return res, fmt.Errorf("repair: reading CSV header: %w", err)
	}
	if len(header) != e.Schema.Arity() {
		return res, fmt.Errorf("repair: CSV has %d columns, schema %q has %d",
			len(header), e.Schema.Name, e.Schema.Arity())
	}
	for i, a := range e.Schema.Attrs {
		if header[i] != a {
			return res, fmt.Errorf("repair: CSV column %d is %q, schema expects %q", i, header[i], a)
		}
	}

	cw := csv.NewWriter(w)
	outHeader := header
	if ens {
		outHeader = append(append([]string(nil), header...), "confidence")
	}
	if err := cw.Write(outHeader); err != nil {
		return res, err
	}
	// Steady-state cleaning reuses the reader's record slice, and each
	// record is consumed before the next read. The cell strings are
	// fresh per record (encoding/csv reuses only the slice), so the
	// memo may keep them.
	cr.ReuseRecord = true
	return e.cleanRows(ctx, cr, cw, len(header), marked, ens)
}

// formatConf renders a row confidence for the CSV confidence column.
func formatConf(conf float64) string { return strconv.FormatFloat(conf, 'f', 3, 64) }

// cleanRows is the streaming loop: one record, one tuple, and the
// engine's pooled repair state are reused, so the only per-row
// allocations left are the decoded record, the rewritten cell values
// and, on a memo miss, the memo entry.
func (e *Engine) cleanRows(ctx context.Context, cr *csv.Reader, cw *csv.Writer, arity int, marked, ens bool) (StreamResult, error) {
	var res StreamResult
	// partial wraps a mid-stream failure: everything written so far is
	// pushed through to the sink first, so the error's Done count is
	// also the number of rows the consumer actually received.
	partial := func(err error) (StreamResult, error) {
		cw.Flush()
		return res, &PartialError{Done: res.Rows, Err: err}
	}
	outArity := arity
	if ens {
		outArity++ // trailing confidence column
		res.MinConfidence = 1
	}
	out := make([]string, outArity)
	tup := &relation.Tuple{
		Values: make([]string, arity),
		Marked: make([]bool, arity),
	}
	for lineno := 2; ; lineno++ {
		if err := ctx.Err(); err != nil {
			return partial(err)
		}
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return partial(fmt.Errorf("repair: reading CSV: %w", err))
		}
		if len(rec) != arity {
			return partial(fmt.Errorf("repair: CSV line %d has %d fields, want %d", lineno, len(rec), arity))
		}
		oc, conf, hit := e.repairInto(ctx, tup, rec, nil, ens)
		if ens {
			res.ConfidenceSum += conf
			if conf < res.MinConfidence {
				res.MinConfidence = conf
			}
			if conf < e.ens.threshold {
				res.BelowThreshold++
			}
			out[arity] = formatConf(conf)
		}
		switch oc {
		case tupleQuarantined:
			res.Quarantined++
		case tupleBudgetExhausted:
			res.BudgetExhausted++
		}
		if hit {
			res.Deduped++
			e.instr.streamDeduped.Inc()
		}
		formatRow(out[:arity], tup, marked)
		if err := cw.Write(out); err != nil {
			return partial(err)
		}
		res.Rows++
		if res.Rows%flushEvery == 0 {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return partial(err)
			}
		}
	}
	cw.Flush()
	return res, cw.Error()
}

// formatRow renders a repaired tuple into dst, applying the "+" mark
// suffix when marked is set.
func formatRow(dst []string, tup *relation.Tuple, marked bool) {
	for i, v := range tup.Values {
		if marked && tup.Marked[i] {
			dst[i] = v + "+"
		} else {
			dst[i] = v
		}
	}
}
