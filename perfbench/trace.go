package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the tracer
// started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	Op     int64  `json:"op"`     // operation ID shared by a request's spans
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the same replay code runs with spans off to
// measure the tracing overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// end closes the span opened by begin.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// write dumps every span as JSON, one array, to path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Overlapping children (a
// parent waiting on parallel work) are counted once, and the parts of a
// child outside its parent are ignored.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, spans, kids[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi).
func covered(lo, hi int64, spans []span, kids []int32) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// byName groups span durations by span name, in milliseconds.
func byName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}
