package rules

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"detective/internal/kb"
	"detective/internal/similarity"
)

// MaxEDThreshold is the largest edit-distance threshold rule nodes may
// use: the bound the graph's class name indexes are built with
// (kb.NameIndexMaxED).
const MaxEDThreshold = kb.NameIndexMaxED

// DefaultCandidateCacheSize is the total number of candidate lists the
// cross-tuple cache retains before evicting (spread across its
// shards). Real dirty tables repeat values heavily (§V's Nobel/UIS/
// WebTables workloads), so even a modest bound absorbs most lookups.
const DefaultCandidateCacheSize = 1 << 16

// candShards is the number of cache shards; a power of two so the
// shard pick is a mask. Sharding keeps the read-mostly cache from
// serializing RepairTableParallel workers on one lock.
const candShards = 64

// shardCap is the per-shard entry bound.
const shardCap = DefaultCandidateCacheSize / candShards

// candKey identifies one candidate retrieval: (class ID, sim spec,
// value). Spec is a small comparable struct, so the key hashes without
// any string assembly.
type candKey struct {
	cls   kb.ID
	spec  similarity.Spec
	value string
}

// shard picks the cache shard for the key (FNV-1a over the value,
// folded with the class and spec).
func (k candKey) shard() uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(k.value); i++ {
		h ^= uint32(k.value[i])
		h *= 16777619
	}
	h ^= uint32(k.cls) * 2654435761
	h ^= uint32(k.spec.Op)<<24 ^ uint32(k.spec.K)<<16
	h ^= uint32(math.Float64bits(k.spec.Tau) >> 32)
	return h & (candShards - 1)
}

// candEntry is one cached candidate list, tagged with the generation
// of the graph it was computed against. A hit requires the tag to
// match the reader's pinned graph, so entries inserted by stragglers
// still running on a pre-swap graph can never be served against the
// post-swap one (and vice versa) — no locking between swap and insert
// is needed for correctness.
type candEntry struct {
	gen int64
	ids []kb.ID
}

type candShard struct {
	mu sync.RWMutex
	m  map[candKey]candEntry
}

// Catalog answers "which KB instances of class T match value v under
// sim?" — the instance-matching primitive of §IV-B(2). An exact ("=")
// node's candidate is the instance the KB's name table gives for v,
// kept if it belongs to T: a hash lookup with no cache entry and no
// index. Similarity nodes retrieve through the graph's per-class
// signature indexes (kb.Graph.NameIndex), which the graph builds on
// first read and shares with every catalog and engine reading it, so
// similarity matching never scans a class extent.
//
// In front of the indexes sits a sharded, read-mostly *candidate
// cache* keyed by (class, sim, value): the repeated values that
// dominate real dirty tables hit the cache instead of re-running
// q-gram/PASS-JOIN retrieval. The catalog counts its own cache and
// index lookups, similarity nodes only, so engines sharing a graph
// keep separate accounts.
//
// The catalog reads its KB through a kb.Store, so the graph can be
// hot-swapped while repairs are streaming. Correctness across a swap
// rests on generations (kb.Store.Swap stamps each incoming graph
// strictly above its predecessor): cache entries are tagged with the
// generation they were computed under and only hit when the tag
// matches the caller's pinned graph. In-flight tuples that pinned the
// old graph keep reading its indexes through the swap window. Callers
// doing multi-step work pin a graph once (Graph()) and use the ...On
// methods.
type Catalog struct {
	store *kb.Store

	gen                atomic.Int64
	shards             [candShards]candShard
	hits, misses       atomic.Int64 // candidate-cache lookups
	idxHits, idxMisses atomic.Int64 // signature-index lookups
}

// NewCatalog creates a catalog over a fixed graph g. For
// hot-swappable serving use NewCatalogStore.
func NewCatalog(g *kb.Graph) *Catalog {
	return NewCatalogStore(kb.NewStore(g))
}

// NewCatalogStore creates a catalog reading the current graph of s.
func NewCatalogStore(s *kb.Store) *Catalog {
	c := &Catalog{store: s}
	c.gen.Store(-1)
	return c
}

// Graph returns the store's current graph. Multi-step callers pin it
// once and pass it to the ...On variants so the whole step sees one
// graph.
func (c *Catalog) Graph() *kb.Graph { return c.store.Graph() }

// Store returns the underlying swappable KB handle.
func (c *Catalog) Store() *kb.Store { return c.store }

// CacheStats reports candidate-cache hits, misses, and the current
// number of cached lists. Only similarity nodes reach the cache.
func (c *Catalog) CacheStats() (hits, misses int64, size int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		size += len(sh.m)
		sh.mu.RUnlock()
	}
	return c.hits.Load(), c.misses.Load(), size
}

// IndexStats reports this catalog's signature-index lookups — hits
// found at least one candidate, misses found none; exact nodes make
// none — and the number of names in the current graph's built
// indexes. The indexes belong to the graph, the lookup counts to the
// catalog: a canary's scratch engines reading the same graph never
// move the serving engine's counts. Together with CacheStats this
// makes both layers — the candidate cache in front, the signature
// indexes behind it — observable through the same telemetry registry.
func (c *Catalog) IndexStats() (hits, misses int64, size int) {
	return c.idxHits.Load(), c.idxMisses.Load(), c.store.Graph().IndexedNames()
}

// advance notes that a reader is operating at generation gen. When gen
// moves past the highest generation seen so far (a KB swap), the
// candidate-cache shards are cleared: their generation
// tags already prevent stale hits, clearing just frees the memory
// promptly. Readers on older graphs (gen below current) advance
// nothing.
func (c *Catalog) advance(gen int64) {
	cur := c.gen.Load()
	if gen <= cur || !c.gen.CompareAndSwap(cur, gen) {
		return // nothing new, or someone else advanced concurrently
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
}

// CandidatesOn returns the instances of class typeName in g whose
// names match value under spec. A type unknown to the KB yields no
// candidates. The returned slice may be shared with the cache and
// other callers — treat it as read-only. Edit-distance specs beyond
// MaxEDThreshold are rejected at rule validation time; reaching here
// with one is a programming error.
func (c *Catalog) CandidatesOn(g *kb.Graph, typeName string, spec similarity.Spec, value string) []kb.ID {
	cls := g.Lookup(typeName)
	if cls == kb.Invalid {
		return nil
	}
	if spec.Op == similarity.OpEq {
		if x := exactCandidate(g, cls, value); x != kb.Invalid {
			return []kb.ID{x}
		}
		return nil
	}
	return c.similar(g, cls, spec, value)
}

// exactCandidate is an exact node's retrieval: the instance of class
// cls named value, or kb.Invalid. Node names are unique in a graph, so
// the name table's answer, kept if HasType puts it in cls, is exactly
// what a scan of the class extent would find. The match hook sees the
// value, as it does on every similarity retrieval.
func exactCandidate(g *kb.Graph, cls kb.ID, value string) kb.ID {
	similarity.Observe(value)
	if x := g.Lookup(value); x != kb.Invalid && g.HasType(x, cls) {
		return x
	}
	return kb.Invalid
}

// similar is a similarity node's retrieval on class cls: the candidate
// cache in front, the graph's signature index behind it.
func (c *Catalog) similar(g *kb.Graph, cls kb.ID, spec similarity.Spec, value string) []kb.ID {
	if spec.Op == similarity.OpED && spec.K > MaxEDThreshold {
		panic(fmt.Sprintf("rules: ED threshold %d exceeds MaxEDThreshold %d", spec.K, MaxEDThreshold))
	}
	gen := g.Generation()
	c.advance(gen)
	key := candKey{cls: cls, spec: spec, value: value}
	sh := &c.shards[key.shard()]
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok && e.gen == gen {
		c.hits.Add(1)
		return e.ids
	}
	c.misses.Add(1)
	out := c.retrieve(g, cls, spec, value)
	sh.mu.Lock()
	if sh.m == nil {
		// Grown on use, not presized to the bound: a cold engine's
		// first request touches every shard, and 64 presized maps cost
		// it megabytes of zeroed memory.
		sh.m = make(map[candKey]candEntry)
	}
	if len(sh.m) >= shardCap {
		// The shard is full: evict an arbitrary eighth. Map iteration
		// order is effectively random, which is eviction enough for a
		// cache whose working set is the table's value distribution.
		drop := shardCap/8 + 1
		for k := range sh.m {
			delete(sh.m, k)
			if drop--; drop == 0 {
				break
			}
		}
	}
	sh.m[key] = candEntry{gen: gen, ids: out}
	sh.mu.Unlock()
	return out
}

// retrieve runs the signature-index lookup on g and counts it.
func (c *Catalog) retrieve(g *kb.Graph, cls kb.ID, spec similarity.Spec, value string) []kb.ID {
	raw := g.NameIndex(cls).Lookup(spec, value)
	if len(raw) == 0 {
		c.idxMisses.Add(1)
		return nil
	}
	c.idxHits.Add(1)
	out := make([]kb.ID, len(raw))
	for i, p := range raw {
		out[i] = kb.ID(p)
	}
	return out
}

// RowCandidates holds one tuple's candidate lists on one pinned graph,
// keyed by (column, class, spec, value). The fast repair engine keeps
// one per tuple, so its evidence checks and every rule's evidence
// matching retrieve each node once per tuple; a lone evaluation keeps
// its own. A rewritten cell changes its key, so nothing needs
// invalidating. It is not safe for concurrent use.
type RowCandidates struct {
	g    *kb.Graph
	ents []rowEntry
	one  []kb.ID // backing for exact nodes' single candidates
}

type rowEntry struct {
	col   int
	cls   kb.ID
	spec  similarity.Spec
	value string
	ids   []kb.ID
}

// Reset empties r and pins it to g. Reset(nil) also drops the graph
// and the cell values r held.
func (r *RowCandidates) Reset(g *kb.Graph) {
	r.g = g
	clear(r.ents)
	r.ents, r.one = r.ents[:0], r.one[:0]
}

// candidates returns the instances of class cls whose names match
// value, the tuple's cell in column col, under spec; the first request
// for a key retrieves them. The list is read-only.
func (r *RowCandidates) candidates(cat *Catalog, col int, cls kb.ID, spec similarity.Spec, value string) []kb.ID {
	for i := range r.ents {
		if e := &r.ents[i]; e.col == col && e.cls == cls && e.spec == spec && e.value == value {
			return e.ids
		}
	}
	var ids []kb.ID
	if spec.Op == similarity.OpEq {
		if x := exactCandidate(r.g, cls, value); x != kb.Invalid {
			r.one = append(r.one, x)
			n := len(r.one)
			ids = r.one[n-1 : n : n]
		}
	} else {
		ids = cat.similar(r.g, cls, spec, value)
	}
	r.ents = append(r.ents, rowEntry{col: col, cls: cls, spec: spec, value: value, ids: ids})
	return ids
}

// CandidatesScanOn is the unindexed counterpart of CandidatesOn: it
// enumerates every instance of the class and tests the matching
// operation directly, the O(|C|·|X|) per-node cost the paper charges
// to the basic repair algorithm (§IV-A complexity analysis). The fast
// repair algorithm replaces this with the name table and the signature
// indexes. It is deliberately uncached: it models the basic
// algorithm's cost, and caching it would corrupt the ablation contrast.
func (c *Catalog) CandidatesScanOn(g *kb.Graph, typeName string, spec similarity.Spec, value string) []kb.ID {
	cls := g.Lookup(typeName)
	if cls == kb.Invalid {
		return nil
	}
	return scanCandidates(g, cls, spec, value)
}

// scanCandidates is CandidatesScanOn on a resolved class.
func scanCandidates(g *kb.Graph, cls kb.ID, spec similarity.Spec, value string) []kb.ID {
	var out []kb.ID
	for _, inst := range g.InstancesOf(cls) {
		if spec.Match(value, g.Name(inst)) {
			out = append(out, inst)
		}
	}
	return out
}

// LookupOn retrieves candidates on g by CandidatesOn, or by the class
// extent scan when scan is set.
func (c *Catalog) LookupOn(g *kb.Graph, typeName string, spec similarity.Spec, value string, scan bool) []kb.ID {
	if scan {
		return c.CandidatesScanOn(g, typeName, spec, value)
	}
	return c.CandidatesOn(g, typeName, spec, value)
}
