package repair_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"detective/internal/dataset"
	"detective/internal/faultinject"
	"detective/internal/kb"
	"detective/internal/relation"
	"detective/internal/repair"
)

// memoEngine builds an engine over the hot-swap fixtures with the
// given options, on its own store.
func memoEngine(t *testing.T, opts repair.Options) (*repair.Engine, *kb.Store) {
	t.Helper()
	store := kb.NewStore(swapGraph("A"))
	e, err := repair.NewEngineStore(swapRules(), store, swapSchema, opts)
	if err != nil {
		t.Fatalf("NewEngineStore: %v", err)
	}
	return e, store
}

// TestMemoHitIdentity repairs the same tuple three times: the second
// repair admits it to the memo, the third must be a tuple-tier hit and
// byte-identical to the first, and the clone handed out must not alias
// cache memory (mutating a result must not poison later replays).
func TestMemoHitIdentity(t *testing.T) {
	e, _ := memoEngine(t, repair.Options{})
	tu := relation.NewTuple("Alice", "ParisX", "EuroX")

	r1 := e.FastRepair(tu)
	e.FastRepair(tu) // the second miss admits the row
	ms0 := e.MemoStats()
	if !ms0.Enabled {
		t.Fatal("memo should be enabled by default")
	}
	if ms0.Tuple.Entries == 0 {
		t.Fatalf("no tuple entry cached after the second repair: %+v", ms0.Tuple)
	}
	r2 := e.FastRepair(tu)
	if !r1.EqualMarked(r2) {
		t.Fatalf("memoized replay differs: %v vs %v", r1, r2)
	}
	ms1 := e.MemoStats()
	if ms1.Tuple.Hits <= ms0.Tuple.Hits {
		t.Fatalf("third repair was not a tuple hit: %+v -> %+v", ms0.Tuple, ms1.Tuple)
	}

	// Corrupt the returned clone; the cache must be unaffected.
	r2.Values[1] = "corrupted"
	r2.Marked[1] = false
	r3 := e.FastRepair(tu)
	if !r1.EqualMarked(r3) {
		t.Fatalf("cache poisoned through a returned clone: %v, want %v", r3, r1)
	}
}

// TestMemoRepairRow exercises the exported allocation-free row API:
// outcome mapping, hit reporting, and in-place results.
func TestMemoRepairRow(t *testing.T) {
	e, _ := memoEngine(t, repair.Options{})
	dst := &relation.Tuple{Values: make([]string, 3), Marked: make([]bool, 3)}
	rec := []string{"Alice", "ParisX", "EuroX"}

	// Two cold repairs: the first is declined by the doorkeeper, the
	// second admits the row.
	for i := 0; i < 2; i++ {
		oc, hit := e.RepairRow(dst, rec)
		if oc != repair.RowRepaired || hit {
			t.Fatalf("cold RepairRow #%d = (%v, %v), want (RowRepaired, false)", i+1, oc, hit)
		}
	}
	if dst.Values[1] != "ParisA" || dst.Values[2] != "EuroA" {
		t.Fatalf("cold repair wrong: %v", dst.Values)
	}
	cold := dst.Clone()

	oc, hit := e.RepairRow(dst, rec)
	if oc != repair.RowRepaired || !hit {
		t.Fatalf("warm RepairRow = (%v, %v), want (RowRepaired, true)", oc, hit)
	}
	if !dst.EqualMarked(cold) {
		t.Fatalf("warm repair differs: %v, want %v", dst, cold)
	}
}

// TestMemoAdmission pins the doorkeeper: the memo inserts a row on
// its second miss, not its first. Rows resident when the KB swaps are
// admitted again on their first miss after it, and a breaker probe
// overwrites a resident quarantine, even after other rows have pushed
// the row's tag out of the doorkeeper.
func TestMemoAdmission(t *testing.T) {
	dst := &relation.Tuple{Values: make([]string, 3), Marked: make([]bool, 3)}
	rec := []string{"Alice", "ParisX", "EuroX"}
	// flood repairs n distinct rows once each, and each of them is
	// declined. Under a 256 KiB budget the doorkeeper has one bucket of
	// four tags per shard, so 1,000 rows (about 16 per shard) push
	// every earlier tag out.
	flood := func(t *testing.T, e *repair.Engine, n int) {
		t.Helper()
		before := e.MemoStats().Tuple
		for i := 0; i < n; i++ {
			e.RepairRow(dst, []string{fmt.Sprintf("Passerby-%d", i), "ParisX", "EuroX"})
		}
		if after := e.MemoStats().Tuple; after.Entries != before.Entries || after.Declined-before.Declined != int64(n) {
			t.Fatalf("flood of %d fresh rows: %+v -> %+v, want all declined", n, before, after)
		}
	}

	t.Run("seen once", func(t *testing.T) {
		e, _ := memoEngine(t, repair.Options{})
		for i := 0; i < 4000; i++ {
			e.RepairRow(dst, []string{fmt.Sprintf("Nobody-%d", i), "ParisX", "EuroX"})
		}
		ms := e.MemoStats().Tuple
		if ms.Entries != 0 || ms.Bytes != 0 || ms.Declined != 4000 || ms.Misses != 4000 {
			t.Fatalf("4,000 fresh rows: %+v, want 0 entries, 0 bytes, 4,000 declined", ms)
		}
	})

	t.Run("second miss inserts", func(t *testing.T) {
		e, _ := memoEngine(t, repair.Options{})
		want := []repair.MemoTierStats{
			{Misses: 1, Declined: 1},
			{Misses: 2, Declined: 1, Entries: 1},
			{Hits: 1, Misses: 2, Declined: 1, Entries: 1},
		}
		for i, w := range want {
			_, hit := e.RepairRow(dst, rec)
			ms := e.MemoStats().Tuple
			ms.Bytes = 0
			if ms != w || hit != (w.Hits == 1) {
				t.Fatalf("repair #%d: hit %v, %+v, want %+v", i+1, hit, ms, w)
			}
		}
	})

	t.Run("readmitted after swap", func(t *testing.T) {
		e, store := memoEngine(t, repair.Options{MemoBytes: 256 << 10})
		e.RepairRow(dst, rec)
		e.RepairRow(dst, rec)
		flood(t, e, 1000)
		store.Swap(swapGraph("B"))
		before := e.MemoStats().Tuple
		if _, hit := e.RepairRow(dst, rec); hit || dst.Values[1] != "ParisB" {
			t.Fatalf("first repair after the swap: hit %v, %v, want a fresh ParisB", hit, dst.Values)
		}
		ms := e.MemoStats().Tuple
		if ms.GenEvictions != before.GenEvictions+1 || ms.Entries != 1 || ms.Declined != before.Declined {
			t.Fatalf("first miss after the swap: %+v -> %+v, want the row evicted and inserted again", before, ms)
		}
		if _, hit := e.RepairRow(dst, rec); !hit || dst.Values[1] != "ParisB" {
			t.Fatalf("second repair after the swap: hit %v, %v, want a memoized ParisB", hit, dst.Values)
		}
	})

	t.Run("probe overwrites quarantine", func(t *testing.T) {
		e, _ := memoEngine(t, repair.Options{MemoBytes: 256 << 10, Breaker: breakerTestOptions()})
		poison := "POISON-CITY-27A"
		uninstall := faultinject.PanicOnValue(poison)
		defer uninstall()
		victim := []string{"Alice", poison, "EuroX"}
		e.RepairRow(dst, victim)
		e.RepairRow(dst, victim)
		if oc, hit := e.RepairRow(dst, victim); oc != repair.RowQuarantined || !hit {
			t.Fatalf("victim replay = (%v, %v), want memoized quarantine", oc, hit)
		}
		flood(t, e, 1000)
		for i := 0; i < 32 && e.BreakerStats().State != "open"; i++ {
			e.RepairRow(dst, poisonedRec(poison, i))
		}
		if st := e.BreakerStats().State; st != "open" {
			t.Fatalf("breaker state = %q after the storm, want open", st)
		}
		uninstall()
		// Cooldown rows are detect-only; the probe closes the breaker.
		for i := 0; i < 32 && e.BreakerStats().State != "closed"; i++ {
			e.RepairRow(dst, victim)
		}
		if st := e.BreakerStats(); st.State != "closed" || st.Recoveries != 1 {
			t.Fatalf("probe on the victim did not close the breaker: %+v", st)
		}
		if oc, hit := e.RepairRow(dst, victim); oc != repair.RowRepaired || !hit {
			t.Fatalf("healed replay = (%v, %v), want memoized RowRepaired", oc, hit)
		}
	})
}

// TestCandidateCacheSharesHotValues: a novel tuple that shares a hot
// evidence value with earlier traffic misses the memo, and the
// catalog's candidate cache answers that value's node check without
// another signature-index lookup. The evidence node is an ED one:
// exact nodes read the KB's name table and never reach the cache.
func TestCandidateCacheSharesHotValues(t *testing.T) {
	e, err := repair.NewEngineStore(swapRulesED(), kb.NewStore(swapGraph("A")), swapSchema, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.FastRepair(relation.NewTuple("Alice", "ParisX", "EuroX"))
	ms0 := e.MemoStats()
	hits0, _, _ := e.Cat.CacheStats()
	ih0, im0, _ := e.Cat.IndexStats()
	// Different City/Country cells -> memo miss; same Name cell -> the
	// person-evidence candidates are already cached.
	e.FastRepair(relation.NewTuple("Alice", "ParisY", "EuroY"))
	ms1 := e.MemoStats()
	hits1, _, _ := e.Cat.CacheStats()
	ih1, im1, _ := e.Cat.IndexStats()
	if hits1 <= hits0 {
		t.Fatalf("no candidate-cache hit for shared evidence value: %d -> %d", hits0, hits1)
	}
	if ih1+im1 != ih0+im0 {
		t.Fatalf("shared value reached the signature index: %d -> %d lookups", ih0+im0, ih1+im1)
	}
	if ms1.Tuple.Hits != ms0.Tuple.Hits {
		t.Fatalf("distinct tuple unexpectedly hit the memo: %+v -> %+v", ms0.Tuple, ms1.Tuple)
	}
}

// TestMemoInvalidatedOnSwap is the engine-level half of the reload
// invalidation contract: entries pinned to a superseded generation
// are never served — the post-swap repair must reflect the new graph
// — and the drops are counted as generation evictions.
func TestMemoInvalidatedOnSwap(t *testing.T) {
	e, store := memoEngine(t, repair.Options{})
	tu := relation.NewTuple("Alice", "ParisX", "EuroX")

	r1 := e.FastRepair(tu)
	if r1.Values[1] != "ParisA" {
		t.Fatalf("pre-swap repair = %v, want ParisA", r1.Values)
	}
	e.FastRepair(tu) // admitted under generation A

	store.Swap(swapGraph("B"))
	r2 := e.FastRepair(tu)
	if r2.Values[1] != "ParisB" || r2.Values[2] != "EuroB" {
		t.Fatalf("post-swap repair served stale values: %v", r2.Values)
	}
	ms := e.MemoStats()
	if ms.Tuple.GenEvictions == 0 {
		t.Errorf("no tuple generation evictions counted: %+v", ms.Tuple)
	}

	// And the new generation memoizes in its own right.
	before := ms.Tuple.Hits
	r3 := e.FastRepair(tu)
	if !r2.EqualMarked(r3) {
		t.Fatalf("post-swap replay differs: %v vs %v", r2, r3)
	}
	if e.MemoStats().Tuple.Hits <= before {
		t.Error("post-swap repair did not repopulate the memo")
	}
}

// TestMemoEvictionRespectsBudget floods a deliberately tiny memo with
// distinct rows, each fed twice so the doorkeeper admits it: the CLOCK
// must keep resident bytes under the configured budget and count
// capacity evictions.
func TestMemoEvictionRespectsBudget(t *testing.T) {
	const budget = 256 << 10
	e, _ := memoEngine(t, repair.Options{MemoBytes: budget})
	dst := &relation.Tuple{Values: make([]string, 3), Marked: make([]bool, 3)}
	for i := 0; i < 4000; i++ {
		rec := []string{fmt.Sprintf("Nobody-%d", i), "ParisX", "EuroX"}
		e.RepairRow(dst, rec)
		e.RepairRow(dst, rec)
	}
	ms := e.MemoStats()
	if ms.BudgetBytes != budget {
		t.Fatalf("BudgetBytes = %d, want %d", ms.BudgetBytes, budget)
	}
	if got := ms.Tuple.Bytes; got > budget {
		t.Errorf("resident bytes %d exceed budget %d", got, budget)
	}
	if ms.Tuple.Evictions == 0 {
		t.Errorf("no capacity evictions under a flooded 256 KiB budget: %+v", ms.Tuple)
	}
	if ms.Tuple.Entries == 0 {
		t.Errorf("memo retained nothing: %+v", ms.Tuple)
	}
}

// TestMemoDisabled checks both off switches and that the disabled
// engine reports a zero MemoStats.
func TestMemoDisabled(t *testing.T) {
	for name, opts := range map[string]repair.Options{
		"flag":     {MemoDisabled: true},
		"negative": {MemoBytes: -1},
	} {
		t.Run(name, func(t *testing.T) {
			e, _ := memoEngine(t, opts)
			tu := relation.NewTuple("Alice", "ParisX", "EuroX")
			r1 := e.FastRepair(tu)
			r2 := e.FastRepair(tu)
			if !r1.EqualMarked(r2) {
				t.Fatalf("repeated repair differs: %v vs %v", r1, r2)
			}
			if ms := e.MemoStats(); ms.Enabled || ms.Tuple.Hits != 0 {
				t.Fatalf("disabled engine reports memo activity: %+v", ms)
			}
		})
	}
}

// TestFaultMemoQuarantineReplay pins the verdict-caching contract:
// a poisoned row's quarantine is memoized under the generation it ran
// on (on its second pass, when the doorkeeper admits it), so replaying
// the same row is answered from the cache — byte-identical, still
// counted as quarantined — without re-entering the panicking kernel.
// (TestFault* naming opts this into the nightly fault lane's -count=5
// runs.)
func TestFaultMemoQuarantineReplay(t *testing.T) {
	ex := dataset.NewPaperExample()
	poison := "POISON-MEMO-13M"
	dirty := ex.Dirty.Clone()
	dirty.SetCell(1, "Name", poison)

	e, err := repair.NewEngine(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	uninstall := faultinject.PanicOnValue(poison)

	var out1 []byte
	for pass := 1; pass <= 2; pass++ {
		var in, out bytes.Buffer
		if err := dirty.WriteCSV(&in); err != nil {
			t.Fatal(err)
		}
		res, err := e.CleanCSVStreamContext(context.Background(), &in, &out, false)
		if err != nil {
			t.Fatalf("poisoned stream %d: %v", pass, err)
		}
		if res.Quarantined != 1 {
			t.Fatalf("poisoned pass %d Quarantined = %d, want 1", pass, res.Quarantined)
		}
		if pass == 1 {
			out1 = out.Bytes()
		}
	}

	// Remove the fault. A fresh repair of the poisoned row would now
	// succeed — but the memo must replay the recorded quarantine
	// verdict, keeping replays byte-identical to the first pass.
	uninstall()

	var in2, out2 bytes.Buffer
	if err := dirty.WriteCSV(&in2); err != nil {
		t.Fatal(err)
	}
	res2, err := e.CleanCSVStreamContext(context.Background(), &in2, &out2, false)
	if err != nil {
		t.Fatalf("replay stream: %v", err)
	}
	if res2.Quarantined != 1 {
		t.Fatalf("replayed pass Quarantined = %d, want 1 (from the memoized verdict)", res2.Quarantined)
	}
	if res2.Deduped != dirty.Len() {
		t.Errorf("replayed pass Deduped = %d, want %d (every row memo-served)", res2.Deduped, dirty.Len())
	}
	if !bytes.Equal(out1, out2.Bytes()) {
		t.Errorf("replay not byte-identical:\n%s\nvs:\n%s", out2.Bytes(), out1)
	}
}

// TestMemoStreamByteIdenticalUnderReload is the concurrency property
// test of the memo: a Zipf-skewed stream cleaned by two concurrent
// streams on one memoized engine — while the KB is concurrently
// hot-swapped to freshly built, semantically identical graphs, each
// swap bumping the generation and invalidating the memo — must be
// byte-identical to a memo-disabled reference. Run under -race (the
// `make race` lane) this also proves the memo's sharded state is
// race-clean against concurrent streams and reloads.
func TestMemoStreamByteIdenticalUnderReload(t *testing.T) {
	// Zipf-skewed corpus over a small set of distinct dirty rows.
	cities := []string{"ParisX", "Paris", "PariA", "ParisQQ", "Pari"}
	countries := []string{"EuroX", "Euro", "EuroQ", "EuroAA", "Eur"}
	rng := rand.New(rand.NewSource(42))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(cities)-1))
	var corpus strings.Builder
	corpus.WriteString("Name,City,Country\n")
	const rows = 4000
	for i := 0; i < rows; i++ {
		corpus.WriteString("Alice," + cities[z.Uint64()] + "," + countries[z.Uint64()] + "\n")
	}

	ref, err := repair.NewEngineStore(swapRules(), kb.NewStore(swapGraph("A")), swapSchema,
		repair.Options{MemoDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	wantRes, err := ref.CleanCSVStreamContext(context.Background(), strings.NewReader(corpus.String()), &want, true)
	if err != nil {
		t.Fatal(err)
	}

	e, store := memoEngine(t, repair.Options{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// Fresh build every time: generations are strictly
			// increasing and a pinned graph's stamp is never mutated
			// under a concurrent reader.
			store.Swap(swapGraph("A"))
		}
	}()

	for pass := 1; pass <= 2; pass++ {
		outs, ress, errs := streamConcurrently(e.CleanCSVStreamContext, corpus.String(), 2, true)
		for s, res := range ress {
			if errs[s] != nil {
				t.Fatalf("pass %d stream %d: %v", pass, s, errs[s])
			}
			if outs[s] != want.String() {
				t.Fatalf("pass %d stream %d: memoized output differs from memo-disabled reference", pass, s)
			}
			if res.Rows != wantRes.Rows || res.Quarantined != wantRes.Quarantined || res.BudgetExhausted != wantRes.BudgetExhausted {
				t.Fatalf("pass %d stream %d: accounting differs: %+v vs %+v", pass, s, res, wantRes)
			}
		}
	}
	close(done)
	wg.Wait()

	ms := e.MemoStats()
	if ms.Tuple.Hits == 0 {
		t.Error("the skewed stream produced no tuple hits")
	}
}

// TestMemoDoesNotPerturbEval backs the EXPERIMENTS.md claim: the
// repaired table — and therefore every precision/recall number the
// eval harness derives from it — is identical with the memo on
// (including warm replays) and off.
func TestMemoDoesNotPerturbEval(t *testing.T) {
	b := dataset.NewNobel(11, 200)
	inj := b.Inject(dataset.Noise{Rate: 0.2, TypoFrac: 0.5, Seed: 11})

	on, err := repair.NewEngine(b.Rules, b.Yago, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	off, err := repair.NewEngineWithOptions(b.Rules, b.Yago, b.Schema, repair.Options{MemoDisabled: true})
	if err != nil {
		t.Fatal(err)
	}

	want := off.RepairTable(inj.Dirty, true)
	for pass := 1; pass <= 3; pass++ { // pass 2 admits, pass 3 is fully memo-served
		hits := on.MemoStats().Tuple.Hits
		got := on.RepairTable(inj.Dirty, true)
		if got.Len() != want.Len() {
			t.Fatalf("pass %d: %d rows, want %d", pass, got.Len(), want.Len())
		}
		for i := range want.Tuples {
			if !got.Tuples[i].EqualMarked(want.Tuples[i]) {
				t.Fatalf("pass %d row %d: memo-on %v differs from memo-off %v",
					pass, i, got.Tuples[i], want.Tuples[i])
			}
		}
		if served := on.MemoStats().Tuple.Hits - hits; pass == 3 && served != int64(want.Len()) {
			t.Errorf("third pass: %d of %d rows memo-served", served, want.Len())
		}
	}
	if ms := on.MemoStats(); ms.Tuple.Hits == 0 {
		t.Error("repeated passes produced no memo hits")
	}
}
