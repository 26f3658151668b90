package repair_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"detective/internal/faultinject"
	"detective/internal/relation"
	"detective/internal/repair"
)

// Small thresholds so a handful of rows exercises the whole breaker
// lifecycle. (TestFault* naming opts these into the nightly fault
// lane's repeated -race runs.)
func breakerTestOptions() repair.BreakerOptions {
	return repair.BreakerOptions{Enabled: true, Window: 8, MinSamples: 4, TripRatio: 0.5, CooldownRows: 4}
}

// poisonedRec returns a distinct record whose City cell trips the
// injected similarity panic; varying Country keeps the rows distinct
// so the memo cannot absorb the storm before the breaker sees it.
func poisonedRec(poison string, i int) []string {
	return []string{"Alice", poison, fmt.Sprintf("E%02d", i)}
}

// TestFaultBreakerTripsToDetectOnly drives a storm of poisoned rows
// through RepairRow: the breaker must trip to detect-only, after which
// healthy rows keep their original values but still carry the marks of
// the rules that would have fired.
func TestFaultBreakerTripsToDetectOnly(t *testing.T) {
	e, _ := memoEngine(t, repair.Options{MemoDisabled: true, Breaker: breakerTestOptions()})
	poison := "POISON-CITY-41B"
	defer faultinject.PanicOnValue(poison)()

	dst := &relation.Tuple{Values: make([]string, 3), Marked: make([]bool, 3)}
	for i := 0; i < 6; i++ {
		if oc, _ := e.RepairRow(dst, poisonedRec(poison, i)); oc != repair.RowQuarantined && e.BreakerStats().State == "closed" {
			t.Fatalf("poisoned row %d = %v while closed, want RowQuarantined", i, oc)
		}
	}
	stats := e.BreakerStats()
	if !stats.Enabled || stats.State != "open" || stats.Trips != 1 {
		t.Fatalf("breaker did not trip: %+v", stats)
	}

	// Detect-only: a healthy repairable row passes through with its
	// original values, marked where rules implicate cells.
	oc, hit := e.RepairRow(dst, []string{"Alice", "ParisX", "EuroX"})
	if oc != repair.RowRepaired || hit {
		t.Fatalf("degraded healthy row = (%v, %v), want (RowRepaired, false)", oc, hit)
	}
	if dst.Values[1] != "ParisX" || dst.Values[2] != "EuroX" {
		t.Fatalf("detect-only rewrote values: %v", dst.Values)
	}
	if !dst.Marked[1] || !dst.Marked[2] {
		t.Fatalf("detect-only lost the rule marks: %v", dst.Marked)
	}
	if got := e.BreakerStats().DegradedRows; got == 0 {
		t.Fatal("DegradedRows not counted")
	}
}

// TestFaultBreakerRecoversViaProbe: after the fault is fixed, the
// cooldown elapses, the half-open probe repairs for real, and the
// breaker closes — full repairs resume.
func TestFaultBreakerRecoversViaProbe(t *testing.T) {
	e, _ := memoEngine(t, repair.Options{MemoDisabled: true, Breaker: breakerTestOptions()})
	poison := "POISON-CITY-52R"
	uninstall := faultinject.PanicOnValue(poison)

	dst := &relation.Tuple{Values: make([]string, 3), Marked: make([]bool, 3)}
	for i := 0; i < 6; i++ {
		e.RepairRow(dst, poisonedRec(poison, i))
	}
	if st := e.BreakerStats(); st.State != "open" {
		t.Fatalf("breaker state = %q, want open", st.State)
	}

	// Fault fixed; rows through the rest of the cooldown (part of which
	// the storm's own tail already consumed) are still detect-only.
	uninstall()
	healthy := []string{"Alice", "ParisX", "EuroX"}
	for i := 0; i < 8 && e.BreakerStats().State == "open"; i++ {
		if oc, _ := e.RepairRow(dst, healthy); oc != repair.RowRepaired || dst.Values[1] != "ParisX" {
			t.Fatalf("cooldown row %d = %v %v, want detect-only original", i, oc, dst.Values)
		}
	}
	if st := e.BreakerStats(); st.State != "half-open" {
		t.Fatalf("breaker state = %q after cooldown, want half-open", st.State)
	}
	// Next row claims the half-open probe and repairs fully.
	if oc, _ := e.RepairRow(dst, healthy); oc != repair.RowRepaired || dst.Values[1] != "ParisA" || dst.Values[2] != "EuroA" {
		t.Fatalf("probe row = %v %v, want full repair", oc, dst.Values)
	}
	st := e.BreakerStats()
	if st.State != "closed" || st.Recoveries != 1 || st.Reopens != 0 {
		t.Fatalf("breaker did not recover: %+v", st)
	}
	// And stays closed for subsequent traffic.
	if oc, _ := e.RepairRow(dst, healthy); oc != repair.RowRepaired || dst.Values[1] != "ParisA" {
		t.Fatalf("post-recovery row = %v %v", oc, dst.Values)
	}
}

// TestFaultBreakerReopensOnFailedProbe: while the fault persists, the
// half-open probe quarantines and the breaker reopens rather than
// letting the storm back in.
func TestFaultBreakerReopensOnFailedProbe(t *testing.T) {
	e, _ := memoEngine(t, repair.Options{MemoDisabled: true, Breaker: breakerTestOptions()})
	poison := "POISON-CITY-63F"
	defer faultinject.PanicOnValue(poison)()

	dst := &relation.Tuple{Values: make([]string, 3), Marked: make([]bool, 3)}
	i := 0
	for ; i < 6; i++ {
		e.RepairRow(dst, poisonedRec(poison, i))
	}
	if st := e.BreakerStats(); st.State != "open" {
		t.Fatalf("breaker state = %q, want open", st.State)
	}
	// Cooldown (detect-only rows: evaluation still panics on the
	// poisoned cell, so they quarantine without being samples), then
	// the probe re-trips the fault and reopens.
	for n := 0; n < 5; n++ {
		e.RepairRow(dst, poisonedRec(poison, i))
		i++
	}
	st := e.BreakerStats()
	if st.Reopens == 0 || st.State != "open" {
		t.Fatalf("failed probe did not reopen: %+v", st)
	}
}

// TestFaultBreakerProbeHealsMemoizedQuarantine pins the memo/breaker
// contract: degraded rows bypass the memo entirely, and the half-open
// probe skips the memo read and overwrites the poisoned verdict — so
// a quarantine cached during the incident does not outlive it.
func TestFaultBreakerProbeHealsMemoizedQuarantine(t *testing.T) {
	e, _ := memoEngine(t, repair.Options{Breaker: breakerTestOptions()})
	poison := "POISON-CITY-74H"
	uninstall := faultinject.PanicOnValue(poison)

	dst := &relation.Tuple{Values: make([]string, 3), Marked: make([]bool, 3)}
	victim := []string{"Alice", poison, "EuroX"}
	if oc, _ := e.RepairRow(dst, victim); oc != repair.RowQuarantined {
		t.Fatalf("victim row = %v, want RowQuarantined", oc)
	}
	// The verdict is memoized: a replay is a hit, still quarantined.
	if oc, hit := e.RepairRow(dst, victim); oc != repair.RowQuarantined || !hit {
		t.Fatalf("replay = (%v, %v), want memoized quarantine", oc, hit)
	}
	// Distinct poisoned rows trip the breaker (memo hits are not
	// samples, so the storm must miss the cache).
	for i := 0; i < 8; i++ {
		e.RepairRow(dst, poisonedRec(poison, i))
	}
	if st := e.BreakerStats(); st.State != "open" {
		t.Fatalf("breaker state = %q, want open", st.State)
	}

	uninstall()
	// Cooldown on the victim row: detect-only, memo bypassed — were it
	// consulted, the cached quarantine would short-circuit recovery.
	for i := 0; i < 4; i++ {
		e.RepairRow(dst, victim)
	}
	// Probe on the victim row: skips the memo read, runs fresh, closes
	// the breaker, and overwrites the cached verdict.
	if oc, hit := e.RepairRow(dst, victim); oc != repair.RowRepaired || hit {
		t.Fatalf("probe = (%v, %v), want fresh RowRepaired", oc, hit)
	}
	if st := e.BreakerStats(); st.State != "closed" || st.Recoveries != 1 {
		t.Fatalf("breaker did not close on probe: %+v", st)
	}
	// The memo now replays the healed verdict.
	if oc, hit := e.RepairRow(dst, victim); oc != repair.RowRepaired || !hit {
		t.Fatalf("healed replay = (%v, %v), want memoized RowRepaired", oc, hit)
	}
}

// TestFaultBreakerTableDegrades: the serial RepairTable feeds and obeys
// the breaker. A storm of poisoned rows through it trips the breaker,
// and the next table is served detect-only, row for row as RepairRow
// serves it.
func TestFaultBreakerTableDegrades(t *testing.T) {
	o := breakerTestOptions()
	o.CooldownRows = 64 // stays open for the whole test
	e, _ := memoEngine(t, repair.Options{Breaker: o})
	poison := "POISON-CITY-18T"
	defer faultinject.PanicOnValue(poison)()

	storm := relation.NewTable(swapSchema)
	for i := 0; i < 6; i++ {
		storm.Append(poisonedRec(poison, i)...)
	}
	e.RepairTable(storm, true)
	if st := e.BreakerStats(); st.State != "open" || st.Trips != 1 {
		t.Fatalf("storm through RepairTable did not trip the breaker: %+v", st)
	}

	healthy := relation.NewTable(swapSchema)
	healthy.Append("Alice", "ParisX", "EuroX")
	got := e.RepairTable(healthy, true).Tuples[0]
	if got.Values[1] != "ParisX" || got.Values[2] != "EuroX" || !got.Marked[1] || !got.Marked[2] {
		t.Fatalf("RepairTable row = %v, want detect-only marks on the original values", got)
	}
	dst := &relation.Tuple{Values: make([]string, 3), Marked: make([]bool, 3)}
	if oc, hit := e.RepairRow(dst, healthy.Tuples[0].Values); oc != repair.RowRepaired || hit || !got.EqualMarked(dst) {
		t.Fatalf("RepairRow = (%v, %v) %v, RepairTable %v", oc, hit, dst, got)
	}
}

// TestFaultBreakerStreamDegrades runs the storm through the streaming
// cleaner: rows before the trip repair normally, rows after pass
// through detect-only, and the stream itself never fails.
func TestFaultBreakerStreamDegrades(t *testing.T) {
	e, _ := memoEngine(t, repair.Options{MemoDisabled: true, Breaker: breakerTestOptions()})
	poison := "POISON-CITY-85S"
	defer faultinject.PanicOnValue(poison)()

	var in bytes.Buffer
	in.WriteString("Name,City,Country\n")
	in.WriteString("Alice,ParisX,EuroX\n") // pre-storm: repaired
	for i := 0; i < 6; i++ {
		in.WriteString(strings.Join(poisonedRec(poison, i), ",") + "\n")
	}
	in.WriteString("Alice,ParisY,EuroY\n") // post-trip: detect-only

	var out bytes.Buffer
	res, err := e.CleanCSVStreamContext(context.Background(), &in, &out, false)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if res.Rows != 8 {
		t.Fatalf("res.Rows = %d, want 8", res.Rows)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[1] != "Alice,ParisA,EuroA" {
		t.Fatalf("pre-storm row not repaired: %q", lines[1])
	}
	if lines[8] != "Alice,ParisY,EuroY" {
		t.Fatalf("post-trip row not served detect-only: %q", lines[8])
	}
	// The storm's tail may have burned through the cooldown already, so
	// the breaker is open or half-open — anything but closed.
	if st := e.BreakerStats(); st.State == "closed" || st.DegradedRows == 0 {
		t.Fatalf("breaker not degraded after storm: %+v", st)
	}
}

// TestFaultBreakerDisabledByDefault: without the option the breaker
// never engages — every poisoned row quarantines, healthy rows repair,
// and BreakerStats reports disabled.
func TestFaultBreakerDisabledByDefault(t *testing.T) {
	e, _ := memoEngine(t, repair.Options{MemoDisabled: true})
	poison := "POISON-CITY-96D"
	defer faultinject.PanicOnValue(poison)()

	dst := &relation.Tuple{Values: make([]string, 3), Marked: make([]bool, 3)}
	for i := 0; i < 20; i++ {
		if oc, _ := e.RepairRow(dst, poisonedRec(poison, i)); oc != repair.RowQuarantined {
			t.Fatalf("row %d = %v, want RowQuarantined (no breaker)", i, oc)
		}
	}
	if oc, _ := e.RepairRow(dst, []string{"Alice", "ParisX", "EuroX"}); oc != repair.RowRepaired || dst.Values[1] != "ParisA" {
		t.Fatalf("healthy row degraded without a breaker: %v %v", oc, dst.Values)
	}
	if st := e.BreakerStats(); st.Enabled {
		t.Fatalf("BreakerStats = %+v, want disabled", st)
	}
}
