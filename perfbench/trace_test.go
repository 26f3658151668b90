package main

import "testing"

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "decode", Start: 10, End: 30, Parent: 0},
		{Name: "rows", Start: 20, End: 50, Parent: 0},    // overlaps decode: counted once
		{Name: "encode", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "row", Start: 25, End: 35, Parent: 2},
		{Name: "other", Start: 200, End: 260, Parent: -1},
	}
	want := []int64{
		100 - (40 + 10), // children cover [10,50) and [90,100)
		20,
		30 - 10, // its grandchild covers [25,35)
		30,
		10,
		60,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	// A request's layer self times plus its own add up to its duration
	// when children stay inside it and do not overlap.
	flat := []span{
		{Name: "request", Start: 0, End: 50, Parent: -1},
		{Name: "decode", Start: 5, End: 15, Parent: 0},
		{Name: "rows", Start: 15, End: 40, Parent: 0},
	}
	s := selfTimes(flat)
	if s[0]+s[1]+s[2] != 50 {
		t.Errorf("self times %v do not sum to the request's 50", s)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x", -1, 1)
	tr.end(id)
	if id != -1 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded span %d (%d spans)", id, len(tr.spans))
	}
	on := newTracer(true)
	root := on.begin("request", -1, 7)
	child := on.begin("decode", root, 7)
	on.end(child)
	on.end(root)
	if len(on.spans) != 2 || on.spans[1].Parent != root || on.spans[1].Op != 7 || on.spans[0].End < on.spans[1].End {
		t.Errorf("spans %+v", on.spans)
	}
}
