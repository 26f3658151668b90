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

// TestMemoHitIdentity repairs the same tuple twice: the second repair
// must be a tuple-tier hit and byte-identical to the first, and the
// clone handed out must not alias cache memory (mutating a result
// must not poison later replays).
func TestMemoHitIdentity(t *testing.T) {
	e, _ := memoEngine(t, repair.Options{})
	tu := relation.NewTuple("Alice", "ParisX", "EuroX")

	r1 := e.FastRepair(tu)
	ms0 := e.MemoStats()
	if !ms0.Enabled {
		t.Fatal("memo should be enabled by default")
	}
	if ms0.Tuple.Entries == 0 {
		t.Fatalf("no tuple entry cached after first repair: %+v", ms0.Tuple)
	}
	r2 := e.FastRepair(tu)
	if !r1.EqualMarked(r2) {
		t.Fatalf("memoized replay differs: %v vs %v", r1, r2)
	}
	ms1 := e.MemoStats()
	if ms1.Tuple.Hits <= ms0.Tuple.Hits {
		t.Fatalf("second repair was not a tuple hit: %+v -> %+v", ms0.Tuple, ms1.Tuple)
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

	oc, hit := e.RepairRow(dst, rec)
	if oc != repair.RowRepaired || hit {
		t.Fatalf("cold RepairRow = (%v, %v), want (RowRepaired, false)", oc, hit)
	}
	if dst.Values[1] != "ParisA" || dst.Values[2] != "EuroA" {
		t.Fatalf("cold repair wrong: %v", dst.Values)
	}
	cold := dst.Clone()

	oc, hit = e.RepairRow(dst, rec)
	if oc != repair.RowRepaired || !hit {
		t.Fatalf("warm RepairRow = (%v, %v), want (RowRepaired, true)", oc, hit)
	}
	if !dst.EqualMarked(cold) {
		t.Fatalf("warm repair differs: %v, want %v", dst, cold)
	}
}

// TestCandidateCacheSharesHotValues: a novel tuple that shares a hot
// evidence value with earlier traffic misses the memo, and the
// catalog's candidate cache answers that value's node check without
// another signature-index lookup.
func TestCandidateCacheSharesHotValues(t *testing.T) {
	e, _ := memoEngine(t, repair.Options{})
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
	e.FastRepair(tu) // warm hit under generation A

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
// distinct rows: the CLOCK must keep resident bytes under the
// configured budget and count capacity evictions.
func TestMemoEvictionRespectsBudget(t *testing.T) {
	const budget = 256 << 10
	e, _ := memoEngine(t, repair.Options{MemoBytes: budget})
	dst := &relation.Tuple{Values: make([]string, 3), Marked: make([]bool, 3)}
	for i := 0; i < 4000; i++ {
		e.RepairRow(dst, []string{fmt.Sprintf("Nobody-%d", i), "ParisX", "EuroX"})
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
// on, so replaying the same row is answered from the cache —
// byte-identical, still counted as quarantined — without re-entering
// the panicking kernel. (TestFault* naming opts this into the nightly
// fault lane's -count=5 runs.)
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

	var in1, out1 bytes.Buffer
	if err := dirty.WriteCSV(&in1); err != nil {
		t.Fatal(err)
	}
	res1, err := e.CleanCSVStreamContext(context.Background(), &in1, &out1, false)
	if err != nil {
		t.Fatalf("first stream: %v", err)
	}
	if res1.Quarantined != 1 {
		t.Fatalf("first pass Quarantined = %d, want 1", res1.Quarantined)
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
		t.Fatalf("second stream: %v", err)
	}
	if res2.Quarantined != 1 {
		t.Fatalf("replayed pass Quarantined = %d, want 1 (from the memoized verdict)", res2.Quarantined)
	}
	if res2.Deduped != dirty.Len() {
		t.Errorf("replayed pass Deduped = %d, want %d (every row memo-served)", res2.Deduped, dirty.Len())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Errorf("replay not byte-identical:\n%s\nvs:\n%s", out2.Bytes(), out1.Bytes())
	}
}

// TestMemoStreamByteIdenticalUnderReload is the concurrency property
// test of the acceptance criteria: a Zipf-skewed stream cleaned by
// the memoized parallel pipeline — while the KB is concurrently
// hot-swapped to freshly built, semantically identical graphs, each
// swap bumping the generation and invalidating the memo — must be
// byte-identical to a memo-disabled serial reference. Run under
// -race (the `make race` lane) this also proves the memo's sharded
// state is race-clean against concurrent reloads.
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

	e, store := memoEngine(t, repair.Options{Workers: 4, ChunkSize: 32})
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
		var got bytes.Buffer
		res, err := e.CleanCSVStreamContext(context.Background(), strings.NewReader(corpus.String()), &got, true)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("pass %d: memoized parallel output differs from memo-disabled serial reference", pass)
		}
		if res.Rows != wantRes.Rows || res.Quarantined != wantRes.Quarantined || res.BudgetExhausted != wantRes.BudgetExhausted {
			t.Fatalf("pass %d: accounting differs: %+v vs %+v", pass, res, wantRes)
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
	for pass := 1; pass <= 2; pass++ { // pass 2 is fully memo-served
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
	}
	if ms := on.MemoStats(); ms.Tuple.Hits == 0 {
		t.Error("second pass produced no memo hits")
	}
}
