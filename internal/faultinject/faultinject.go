// Package faultinject provides the chaos primitives used by the
// fault-tolerance tests: readers that deliver short reads or die
// mid-stream, writers that fail after a while, and a panic-injecting
// similarity hook that simulates a poisoned row deep inside the
// repair kernels. Production code never imports this package; it
// exists so every failure mode the server claims to survive has a
// test that actually produces it.
package faultinject

import (
	"errors"
	"io"

	"detective/internal/similarity"
)

// ErrInjected is the default error injected by Reader and Writer.
var ErrInjected = errors.New("faultinject: injected fault")

// Reader wraps an io.Reader with chaos: reads are truncated to at
// most Chunk bytes (forcing the consumer to cope with short reads),
// and after FailAfter total bytes every Read fails with Err. The zero
// limits disable the respective behaviour.
type Reader struct {
	R         io.Reader
	Chunk     int   // max bytes returned per Read; 0 = no limit
	FailAfter int64 // total bytes after which reads fail; 0 = never
	Err       error // error to inject; nil = ErrInjected

	n int64
}

func (r *Reader) Read(p []byte) (int, error) {
	if r.FailAfter > 0 && r.n >= r.FailAfter {
		if r.Err != nil {
			return 0, r.Err
		}
		return 0, ErrInjected
	}
	if r.Chunk > 0 && len(p) > r.Chunk {
		p = p[:r.Chunk]
	}
	if r.FailAfter > 0 {
		if left := r.FailAfter - r.n; int64(len(p)) > left {
			p = p[:left]
		}
	}
	n, err := r.R.Read(p)
	r.n += int64(n)
	return n, err
}

// Writer fails with Err once FailAfter successful Write calls have
// gone through; earlier writes are forwarded to W (or discarded when
// W is nil). It stands in for a closed client connection or a full
// disk on the output side.
type Writer struct {
	W         io.Writer
	FailAfter int   // number of Write calls to allow
	Err       error // error to inject; nil = ErrInjected

	calls int
}

// Calls returns the number of Write calls that went through.
func (w *Writer) Calls() int { return w.calls }

func (w *Writer) Write(p []byte) (int, error) {
	if w.calls >= w.FailAfter {
		if w.Err != nil {
			return 0, w.Err
		}
		return 0, ErrInjected
	}
	w.calls++
	if w.W == nil {
		return len(p), nil
	}
	return w.W.Write(p)
}

// PanicOnValue installs a similarity match hook that panics whenever
// the query string equals trigger — the moral equivalent of one
// poisoned cell value crashing the matching kernel. It returns an
// uninstall function restoring the previous hook; callers must defer
// it.
func PanicOnValue(trigger string) (uninstall func()) {
	prev := similarity.SetMatchHook(func(q string) {
		if q == trigger {
			panic("faultinject: poisoned value " + trigger)
		}
	})
	return func() { similarity.SetMatchHook(prev) }
}
