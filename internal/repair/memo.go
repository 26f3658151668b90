// Global cross-request repair memoization.
//
// Repair is a pure function of (rule set, KB generation, tuple
// values): the engine is read-only after construction and every tuple
// pins one frozen graph for its whole repair. That makes whole
// outcomes cacheable across rows, requests, and connections, and real
// dirty data is heavily value-skewed (Zipf), so a small bounded cache
// absorbs most of the stream. The memo caches whole-tuple outcomes
// keyed by a 64-bit fingerprint of (schema, cell values, marks):
// repaired values, marks, and the quarantine/step-budget verdict, so a
// replay is byte-identical to a fresh repair, degradation semantics
// included. A novel tuple misses here even when it shares hot values
// with earlier traffic; its node checks for those values are answered
// by the catalog's candidate cache (see rules.Catalog.CandidatesOn).
// One function reads and writes the memo: repairInto, the read-through
// every fast single-tuple repair runs (FastRepair, RepairTable*,
// RepairRow, the streaming cleaners, the ensemble). Input marks are
// part of the key. The recording repairs (/explain's steps, the
// evaluation's per-cell alternatives) bypass it.
//
// The memo is sharded 64 ways by the fingerprint's high bits, each
// shard guarded by one mutex and bounded by an intrusive CLOCK over a
// slot array (ref bits live in the slots; eviction walks the slots,
// never allocates). Entries are tagged with the generation of the
// graph the repair actually ran on; a generation mismatch on read
// evicts the entry and counts as a miss, so kb.Store.Swap invalidates
// the whole memo coherently with zero stop-the-world work —
// generations are strictly increasing and never reused, so a stale
// entry can be wasted but never wrong. Fingerprints are verified
// against the full stored key on every hit, so a 64-bit collision
// degrades to a miss instead of a wrong answer. Entries keep the
// caller's input strings as they are: table tuples are owned, and a
// csv.Reader builds fresh cell strings for every record even with
// ReuseRecord set.
//
// A row is memoized on its second miss, not its first: a doorkeeper
// in front of insertion (after TinyLFU's; Einziger, Friedman and
// Manes, ACM TOS 2017) remembers 16-bit tags of recent misses, four to
// a bucket, and a miss whose tag is not already in its bucket only
// pushes it in, dropping the bucket's oldest tag. Fresh rows, seen
// once, never take the memo's bytes, so a row is replayed from its
// third sighting on. Four ways keep two rows that share a bucket from
// evicting each other's tag forever, as one slot per bucket would. A
// fingerprint already resident is always overwritten (the breaker's
// probe heals a cached quarantine that way), and a generation eviction
// pushes the row's tag, so after a KB swap a hot row is admitted again
// on its first miss.
package repair

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"detective/internal/relation"
)

// DefaultMemoBytes is the memo's default byte budget when
// Options.MemoBytes is 0: comfortably thousands of cached tuples at
// eval-dataset row sizes while staying irrelevant next to the KB's own
// footprint.
//
// The budget tracks live heap. Over 27,069 Nobel-4000 rows an entry
// was accounted at 548 bytes, and the memo grew the live heap (memo on
// minus memo off, after runtime.GC) by 553 bytes per entry when it
// held the only reference to the row's strings, as it does for a
// /clean stream's freshly decoded cells, and by 437 when the caller
// kept them. RSS runs to about twice the live heap, because under
// GOGC=100 the heap grows to twice its live size before a collection:
// a memo filled to the 48 MiB budget measured ~70 MB of extra RSS on
// perfbench's clean-cold.
const DefaultMemoBytes = 48 << 20

const (
	memoShardBits  = 6
	memoShardCount = 1 << memoShardBits
)

// doorBytesPerTag sizes the doorkeeper: one tag per 4 KiB of budget,
// rounded up to a power of two, at least one bucket of four per shard.
// The default budget gets 16,384 tags in 4,096 buckets (32 KiB).
const doorBytesPerTag = 4096

// Fixed per-entry cost estimates: slot struct + map entry + slice
// headers. Cell values and row strings are accounted exactly on top.
const (
	tupleEntryOverhead = 160
	stringOverhead     = 16
)

// ---------------------------------------------------------------------------
// Fingerprinting — xxhash/murmur-style 64-bit mixing, allocation-free.

const (
	fpPrime1 = 0x9E3779B185EBCA87
	fpPrime2 = 0xC2B2AE3D27D4EB4F
	fpPrime3 = 0x165667B19E3779F9
	fpPrime4 = 0x85EBCA77C2B2AE63
)

// fpMix folds one 64-bit lane into the running hash.
func fpMix(h, k uint64) uint64 {
	k *= fpPrime2
	k = bits.RotateLeft64(k, 31)
	k *= fpPrime1
	h ^= k
	return bits.RotateLeft64(h, 27)*fpPrime1 + fpPrime4
}

// fpFinish is the final avalanche; without it the high bits (which
// pick the shard) would be dominated by the last lane mixed in.
func fpFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= fpPrime2
	h ^= h >> 29
	h *= fpPrime3
	h ^= h >> 32
	return h
}

// fpString folds one length-prefixed string into h, eight bytes at a
// time. The length prefix frames each cell, so concatenations that
// shuffle bytes across cell boundaries cannot collide structurally.
func fpString(h uint64, s string) uint64 {
	h = fpMix(h, uint64(len(s)))
	i := 0
	for ; i+8 <= len(s); i += 8 {
		k := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = fpMix(h, k)
	}
	if i < len(s) {
		var k uint64
		for j := len(s) - 1; j >= i; j-- {
			k = k<<8 | uint64(s[j])
		}
		h = fpMix(h, k)
	}
	return h
}

// ---------------------------------------------------------------------------
// Stats.

// MemoTierStats is the memo's counters in a MemoStats snapshot,
// reported under its one tier, the whole-tuple outcomes.
type MemoTierStats struct {
	Hits int64 `json:"hits"`
	// Misses counts lookups not answered by the memo, including
	// fingerprint collisions and generation mismatches.
	Misses int64 `json:"misses"`
	// Evictions counts entries evicted by the CLOCK to stay under the
	// byte budget; GenEvictions counts entries dropped on read because
	// their pinned KB generation was superseded by a hot reload.
	Evictions    int64 `json:"evictions"`
	GenEvictions int64 `json:"genEvictions"`
	// Declined counts misses the doorkeeper did not insert, because
	// it had not seen the row before.
	Declined int64 `json:"declined"`
	Entries  int64 `json:"entries"`
	Bytes    int64 `json:"bytes"`
}

// MemoStats is a point-in-time snapshot of the repair memo, exposed
// through Engine.MemoStats, the server's /stats document, and (as
// individual series) Prometheus exposition.
type MemoStats struct {
	// Enabled reports whether the engine was built with the memo on;
	// all other fields are zero when it is false.
	Enabled bool `json:"enabled"`
	// BudgetBytes is the configured byte budget.
	BudgetBytes int64         `json:"budgetBytes"`
	Tuple       MemoTierStats `json:"tuple"`
}

// memoCounters is the memo's live counter set.
type memoCounters struct {
	hits         atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	genEvictions atomic.Int64
	declined     atomic.Int64
	entries      atomic.Int64
	bytes        atomic.Int64
}

func (c *memoCounters) snapshot() MemoTierStats {
	return MemoTierStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		GenEvictions: c.genEvictions.Load(),
		Declined:     c.declined.Load(),
		Entries:      c.entries.Load(),
		Bytes:        c.bytes.Load(),
	}
}

// tupleEntry is one cached whole-tuple repair. orig/origMk hold the
// exact input (verified on every hit; origMk nil means all-unmarked,
// the streaming common case), vals/mk/oc the byte-identical result.
type tupleEntry struct {
	fp     uint64
	gen    int64
	orig   []string
	origMk []bool
	vals   []string
	mk     []bool
	oc     tupleOutcome
	conf   float64
	bytes  int64
	ref    bool
	used   bool
}

type tupleShard struct {
	mu    sync.Mutex
	idx   map[uint64]int32
	slots []tupleEntry
	free  []int32
	hand  int
	bytes int64
}

// remove frees slot i. Slice capacity stays with the slot for reuse;
// the string contents are released by the overwriting insert.
func (s *tupleShard) remove(i int32, c *memoCounters) {
	e := &s.slots[i]
	delete(s.idx, e.fp)
	s.bytes -= e.bytes
	c.bytes.Add(-e.bytes)
	c.entries.Add(-1)
	e.used = false
	e.ref = false
	s.free = append(s.free, i)
}

// ---------------------------------------------------------------------------
// The memo.

// repairMemo is the engine's global cross-request memo. One instance
// per engine; all methods are safe for concurrent use.
type repairMemo struct {
	schemaFP    uint64
	budget      int64 // configured budget, for MemoStats
	tupleBudget int64 // per-shard budget

	tuple      [memoShardCount]tupleShard
	tupleStats memoCounters

	// door is the doorkeeper: buckets of four 16-bit tags, newest in
	// the low bits, split into memoShardCount contiguous regions of
	// doorMask+1 buckets. Shard i owns region i and reads and writes it
	// only under its mutex.
	door     []uint64
	doorMask uint64
}

// newRepairMemo sizes the memo for schema under a byte budget.
func newRepairMemo(schema *relation.Schema, budget int64) *repairMemo {
	h := fpString(uint64(fpPrime3), schema.Name)
	for _, a := range schema.Attrs {
		h = fpString(h, a)
	}
	buckets := uint64(memoShardCount)
	for 4*buckets < uint64(budget/doorBytesPerTag) {
		buckets <<= 1
	}
	m := &repairMemo{
		schemaFP:    fpFinish(h),
		budget:      budget,
		tupleBudget: budget / memoShardCount,
		door:        make([]uint64, buckets),
		doorMask:    buckets/memoShardCount - 1,
	}
	for i := range m.tuple {
		m.tuple[i].idx = make(map[uint64]int32)
	}
	return m
}

func memoShard(fp uint64) int { return int(fp >> (64 - memoShardBits)) }

// seen reports whether fp's tag is in its doorkeeper bucket, which
// its low bits pick inside its shard's region, and otherwise pushes it
// in. The caller holds fp's shard mutex.
func (m *repairMemo) seen(fp uint64) bool {
	b := &m.door[uint64(memoShard(fp))*(m.doorMask+1)+fp&m.doorMask]
	// Bits that pick neither the shard nor the bucket; never 0, so an
	// empty way cannot match.
	tag := uint64(uint16(fp>>32) | 1)
	for w := *b; w != 0; w >>= 16 {
		if w&0xffff == tag {
			return true
		}
	}
	*b = *b<<16 | tag
	return false
}

// tupleFP fingerprints a row's cell values and marks against the
// schema, without allocating. mk nil is the all-unmarked row and
// hashes identically to an explicit all-false slice.
func (m *repairMemo) tupleFP(vals []string, mk []bool) uint64 {
	h := m.schemaFP
	for _, v := range vals {
		h = fpString(h, v)
	}
	var markBits, any uint64
	for i, b := range mk {
		if b {
			markBits |= 1 << (uint(i) & 63)
			any = 1
		}
	}
	if any != 0 {
		h = fpMix(h, markBits)
	}
	return fpFinish(h)
}

func equalRow(a []string, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// equalMarks treats nil as all-false on either side.
func equalMarks(a, b []bool) bool {
	switch {
	case a == nil:
		for _, v := range b {
			if v {
				return false
			}
		}
	case b == nil:
		for _, v := range a {
			if v {
				return false
			}
		}
	default:
		for i, v := range a {
			if v != b[i] {
				return false
			}
		}
	}
	return true
}

func rowBytes(vals []string) int64 {
	n := int64(0)
	for _, v := range vals {
		n += stringOverhead + int64(len(v))
	}
	return n
}

// lookupTuple finds, verifies, and touches the entry for (gen, fp,
// vals, mk) in shard s, whose lock the caller holds, counting the
// outcome. It returns nil on any miss — absent, superseded generation
// (the entry is evicted and its tag pushed into the doorkeeper, so
// the next insert admits it), or fingerprint collision.
func (m *repairMemo) lookupTuple(s *tupleShard, gen int64, fp uint64, vals []string, mk []bool) *tupleEntry {
	c := &m.tupleStats
	i, ok := s.idx[fp]
	if !ok {
		c.misses.Add(1)
		return nil
	}
	e := &s.slots[i]
	if e.gen != gen {
		s.remove(i, c)
		m.seen(fp)
		c.genEvictions.Add(1)
		c.misses.Add(1)
		return nil
	}
	if !equalRow(e.orig, vals) || !equalMarks(e.origMk, mk) {
		c.misses.Add(1)
		return nil
	}
	e.ref = true
	c.hits.Add(1)
	return e
}

// getInto copies the memoized repair of the row (vals, mk) under
// generation gen into tup, whose Values and Marked have the row's
// arity, without allocating. It returns the stored outcome and row
// confidence (1 for single-engine entries) and whether the memo held
// the row.
func (m *repairMemo) getInto(gen int64, fp uint64, vals []string, mk []bool, tup *relation.Tuple) (tupleOutcome, float64, bool) {
	s := &m.tuple[memoShard(fp)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e := m.lookupTuple(s, gen, fp, vals, mk)
	if e == nil {
		return 0, 0, false
	}
	copy(tup.Values, e.vals)
	copy(tup.Marked, e.mk)
	return e.oc, e.conf, true
}

// putTuple inserts the repair of (origVals, origMk) → (out, oc, conf)
// under generation gen, if the doorkeeper admits it: a fingerprint
// not resident is inserted only when the doorkeeper has seen it
// before, and otherwise only recorded there. conf is the row
// confidence stored alongside the outcome (single-engine paths pass
// 1). The entry keeps the strings of origVals, which must not be
// mutated afterwards; only the slices are copied. Oversized entries
// are dropped rather than thrashing the CLOCK.
func (m *repairMemo) putTuple(gen int64, fp uint64, origVals []string, origMk []bool, out *relation.Tuple, oc tupleOutcome, conf float64) {
	size := int64(tupleEntryOverhead) + rowBytes(origVals) + rowBytes(out.Values) + int64(len(origVals)+2*len(out.Values))
	if size > m.tupleBudget {
		return
	}
	s := &m.tuple[memoShard(fp)]
	s.mu.Lock()
	defer s.mu.Unlock()

	var i int32
	if j, ok := s.idx[fp]; ok {
		// Overwrite in place: same fingerprint, possibly a newer
		// generation or a colliding row — the newest repair wins.
		i = j
		e := &s.slots[i]
		s.bytes -= e.bytes
		m.tupleStats.bytes.Add(-e.bytes)
	} else if !m.seen(fp) {
		m.tupleStats.declined.Add(1)
		return
	} else if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
		s.idx[fp] = i
		m.tupleStats.entries.Add(1)
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, tupleEntry{})
		s.idx[fp] = i
		m.tupleStats.entries.Add(1)
	}

	e := &s.slots[i]
	e.fp, e.gen, e.oc, e.conf, e.bytes = fp, gen, oc, conf, size
	e.used, e.ref = true, true
	e.orig = copyRowInto(e.orig, origVals)
	if anyMarked(origMk) {
		e.origMk = append(e.origMk[:0], origMk...)
	} else {
		e.origMk = nil
	}
	// Repaired values: a cell the repair left byte-identical shares the
	// original string; a rewritten cell holds a KB-owned canonical
	// string, safe to retain as-is.
	if cap(e.vals) < len(out.Values) {
		e.vals = make([]string, len(out.Values))
	}
	e.vals = e.vals[:len(out.Values)]
	for k, v := range out.Values {
		if k < len(e.orig) && v == origVals[k] {
			e.vals[k] = e.orig[k]
		} else {
			e.vals[k] = v
		}
	}
	e.mk = append(e.mk[:0], out.Marked...)

	s.bytes += size
	m.tupleStats.bytes.Add(size)
	s.evictTuple(m.tupleBudget, &m.tupleStats, i)
}

// evictTuple is the shard's CLOCK sweep: clear ref bits as the hand
// passes, evict the first unreferenced entry, repeat until under
// budget. keep (the just-inserted slot) is never evicted. The pass
// bound forces progress even when every entry is hot.
func (s *tupleShard) evictTuple(budget int64, c *memoCounters, keep int32) {
	n := len(s.slots)
	for steps := 0; s.bytes > budget && steps < 3*n; steps++ {
		h := s.hand
		s.hand++
		if s.hand >= n {
			s.hand = 0
		}
		e := &s.slots[h]
		if !e.used || int32(h) == keep {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		s.remove(int32(h), c)
		c.evictions.Add(1)
	}
}

// copyRowInto copies src's string headers into dst, reusing its
// capacity.
func copyRowInto(dst, src []string) []string {
	if cap(dst) < len(src) {
		dst = make([]string, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

func anyMarked(mk []bool) bool {
	for _, b := range mk {
		if b {
			return true
		}
	}
	return false
}

// stats snapshots the counters.
func (m *repairMemo) stats() MemoStats {
	return MemoStats{
		Enabled:     true,
		BudgetBytes: m.budget,
		Tuple:       m.tupleStats.snapshot(),
	}
}

// MemoStats snapshots the engine's repair memo counters; the zero
// MemoStats (Enabled false) is returned when the memo is disabled.
func (e *Engine) MemoStats() MemoStats {
	if e.memo == nil {
		return MemoStats{}
	}
	return e.memo.stats()
}

// RowOutcome classifies how RepairRow ended, mirroring the engine's
// internal per-tuple outcomes.
type RowOutcome uint8

const (
	// RowRepaired: the repair reached its fixpoint; dst holds the
	// repaired values and marks.
	RowRepaired RowOutcome = iota
	// RowBudgetExhausted: the step budget ran out; dst holds the
	// original values, unmarked (keep-original-value degradation).
	RowBudgetExhausted
	// RowQuarantined: the repair panicked; dst holds the original
	// values, unmarked.
	RowQuarantined
)

// RepairRow is the allocation-free repair of one unmarked row: it
// repairs rec into the caller-owned dst (whose Values and Marked must
// have the schema's arity) through repairInto, the read-through every
// fast single-tuple repair shares (memo, breaker, recorder, panic
// quarantine and keep-original-value). It reports the outcome and
// whether the memo served the row. rec's strings may be retained by
// the memo, so they must not alias a reused read buffer.
func (e *Engine) RepairRow(dst *relation.Tuple, rec []string) (RowOutcome, bool) {
	oc, _, hit := e.repairInto(context.TODO(), dst, rec, nil, false)
	return RowOutcome(oc), hit
}
