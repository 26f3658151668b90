package repair

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"

	"detective/internal/relation"
)

// streamBufSize is how much cleaned CSV a stream gathers before it
// writes to the sink: every write but the last is at least this large,
// and what was cleaned before a mid-stream failure is written before
// the failure is returned.
const streamBufSize = 16 << 10

// StreamResult is the per-call accounting of one streaming clean.
type StreamResult struct {
	// Rows is the number of rows written to the sink (cleaned,
	// quarantined and degraded rows alike): the rows of a write that
	// failed are not counted.
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
// stops promptly when the context is done. Any failure after the
// header — cancellation, a CSV parse error, a read error, a sink write
// error, the last write's included — returns a *PartialError whose
// Done field equals Rows, the rows whose bytes reached w: what was
// cleaned before the failure is written first, and a write that fails
// delivers none of its rows. Header validation errors are returned
// plain (nothing was written). A row
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

	out := sinkPool.Get().(*streamSink)
	defer out.release()
	out.w = w
	if ens {
		header = append(header, "confidence")
	}
	out.buf = relation.AppendCSV(out.buf, header, nil)
	return e.cleanRows(ctx, cr, out, e.Schema.Arity(), marked, ens)
}

// streamSink gathers a stream's output in one pooled buffer and writes
// it to w when it passes streamBufSize, at the end, and on a failure.
// A failed write empties the buffer too: its rows are not retried.
type streamSink struct {
	w   io.Writer
	buf []byte
}

var sinkPool = sync.Pool{New: func() any {
	return &streamSink{buf: make([]byte, 0, 2*streamBufSize)}
}}

// flush writes what the sink holds to w.
func (s *streamSink) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// release returns the sink to the pool, unless an outsized row grew
// its buffer past twice its usual capacity.
func (s *streamSink) release() {
	if cap(s.buf) > 4*streamBufSize {
		return
	}
	s.w, s.buf = nil, s.buf[:0]
	sinkPool.Put(s)
}

// cleanRows is the streaming loop. A record's fields view the
// reader's buffer; one tuple, the engine's pooled repair state and
// the sink's buffer are reused, so a row the memo serves allocates
// nothing, and a miss copies the row once (repairInto) before
// anything can keep it.
func (e *Engine) cleanRows(ctx context.Context, cr *relation.CSVReader, out *streamSink, arity int, marked, ens bool) (StreamResult, error) {
	var res StreamResult
	// Rows counts only rows whose bytes reached the sink; pending are
	// the rows in the sink's buffer. A write that fails delivers none.
	pending := 0
	flush := func() error {
		err := out.flush()
		if err == nil {
			res.Rows += pending
		}
		pending = 0
		return err
	}
	// partial wraps a mid-stream failure: everything cleaned so far is
	// written to the sink first, so the error's Done count is also the
	// number of rows the consumer was sent.
	partial := func(err error) (StreamResult, error) {
		_ = flush() // the failure being reported comes first
		return res, &PartialError{Done: res.Rows, Err: err}
	}
	if ens {
		res.MinConfidence = 1
	}
	tup := &relation.Tuple{
		Values: make([]string, arity),
		Marked: make([]bool, arity),
	}
	own := make([]string, arity) // a missed row's copy
	var marks []bool
	if marked {
		marks = tup.Marked
	}
	for {
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
			return partial(fmt.Errorf("repair: CSV line %d has %d fields, want %d", cr.Line(), len(rec), arity))
		}
		oc, conf, hit := e.repairInto(ctx, tup, rec, nil, ens, own)
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
		out.buf = relation.AppendCSV(out.buf, tup.Values, marks)
		if ens {
			res.ConfidenceSum += conf
			if conf < res.MinConfidence {
				res.MinConfidence = conf
			}
			if conf < e.ens.threshold {
				res.BelowThreshold++
			}
			// The confidence, three decimals, as a last column.
			out.buf = strconv.AppendFloat(append(out.buf[:len(out.buf)-1], ','), conf, 'f', 3, 64)
			out.buf = append(out.buf, '\n')
		}
		pending++
		if len(out.buf) >= streamBufSize {
			if err := flush(); err != nil {
				return partial(err)
			}
		}
	}
	if err := flush(); err != nil {
		return partial(err)
	}
	return res, nil
}
