package repair

import (
	"sync"
	"sync/atomic"

	"detective/internal/relation"
)

// RowRecorder keeps a sampled ring buffer of recent input rows from
// the serving paths. The canary reload replays a snapshot of this ring
// through scratch engines on the live and candidate graphs to compare
// their quarantine/step-budget/divergence rates before (and after) a
// swap — real traffic, not synthetic probes.
//
// Recording is deliberately cheap on the hot path: a single atomic add
// decides whether a row is sampled at all; only sampled rows pay the
// mutex and the clone. All methods are safe for concurrent use.
type RowRecorder struct {
	every int64
	n     atomic.Int64

	mu     sync.Mutex
	rows   [][]string
	next   int
	filled bool
}

// NewRowRecorder builds a recorder holding up to capacity rows,
// sampling one row in every sampleEvery (<=1 records every row).
func NewRowRecorder(capacity, sampleEvery int) *RowRecorder {
	if capacity <= 0 {
		capacity = 1024
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &RowRecorder{every: int64(sampleEvery), rows: make([][]string, capacity)}
}

// Record possibly samples rec into the ring. rec may view a reused
// read buffer: a sampled row is copied, strings and all, before the
// ring keeps it.
func (r *RowRecorder) Record(rec []string) {
	if r.n.Add(1)%r.every != 0 {
		return
	}
	r.mu.Lock()
	r.rows[r.next] = relation.CloneRecord(r.rows[r.next], rec)
	r.next++
	if r.next == len(r.rows) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// Len reports how many rows the ring currently holds.
func (r *RowRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return len(r.rows)
	}
	return r.next
}

// Snapshot copies the recorded rows out (order unspecified). The
// result shares no storage with the ring, so replay can proceed while
// recording continues.
func (r *RowRecorder) Snapshot() [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.filled {
		n = len(r.rows)
	}
	out := make([][]string, n)
	for i := 0; i < n; i++ {
		out[i] = append([]string(nil), r.rows[i]...)
	}
	return out
}
