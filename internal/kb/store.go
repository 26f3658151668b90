package kb

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Store is an atomically swappable handle to the current knowledge
// graph — the unit of zero-downtime KB reload. Readers pin the graph
// once per tuple with Graph() and finish that tuple entirely on the
// pinned graph; Swap publishes a fully built replacement without
// blocking any reader.
//
// Swap guarantees the incoming graph's Generation is strictly greater
// than the outgoing one's. Caches keyed on a graph's generation
// (rules.Catalog's candidate cache) therefore distinguish pre- and
// post-swap content with a single integer compare, and entries tagged
// with an older generation can never be served against the new graph.
// The signature indexes need no such key: each graph owns its own
// (Graph.NameIndex), so restamping a graph's generation keeps them.
//
// Graphs handed to NewStore or Swap must be fully loaded; the store
// freezes them (forcing the lazy closures) before publishing, so every
// graph observable through Graph() is safe for concurrent reads.
type Store struct {
	cur       atomic.Pointer[Graph]
	swaps     atomic.Int64
	rollbacks atomic.Int64

	mu sync.Mutex // serializes Swap/Rollback/SetRetain's read-stamp-publish sequences
	// maxGen is the highest generation ever published through this
	// store. It never decreases — not even across Rollback — so a
	// fresh graph handed to Swap is always stamped above every graph
	// any cache has ever seen, and a generation number can never be
	// reused for different content.
	maxGen int64
	// ring holds the last retain previously-served graphs, oldest
	// first. Rollback pops the newest. Retained graphs are already
	// frozen and keep their original generation.
	ring   []*Graph
	retain int
}

// ErrNoRetained is returned by Rollback when the retention ring is
// empty (retention disabled, or every retained generation already
// consumed).
var ErrNoRetained = errors.New("kb: no retained generation to roll back to")

// NewStore freezes g and returns a store currently serving it.
func NewStore(g *Graph) *Store {
	g.Freeze()
	s := &Store{maxGen: g.gen}
	s.cur.Store(g)
	return s
}

// Graph returns the currently served graph. Callers doing multi-step
// work (a tuple repair, a stats report) must call this once and hold
// the result, not re-resolve mid-work: IDs are only meaningful within
// one graph.
func (s *Store) Graph() *Graph { return s.cur.Load() }

// Generation returns the current graph's generation.
func (s *Store) Generation() int64 { return s.cur.Load().Generation() }

// Swaps returns how many times Swap has replaced the graph.
func (s *Store) Swaps() int64 { return s.swaps.Load() }

// Swap atomically replaces the served graph with g and returns the
// graph it replaced. g must not be shared with any other goroutine
// yet: Swap stamps its generation (to strictly exceed the outgoing
// graph's) and freezes it before publishing. In-flight work that
// pinned the old graph is unaffected and finishes on it.
func (s *Store) Swap(g *Graph) (old *Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old = s.cur.Load()
	// Stamp above every generation this store has ever published, not
	// just the current one: after a rollback the live generation is
	// lower than maxGen, and reusing one of those numbers for new
	// content would let generation-keyed caches serve stale entries.
	if old.gen > s.maxGen {
		s.maxGen = old.gen
	}
	if g.gen <= s.maxGen {
		// Restamping invalidates a generation-tagged fingerprint memo;
		// carry it over so a delta-applied graph keeps its verified
		// fingerprint (content is unchanged by restamping).
		if m := g.fp.Load(); m != nil && m.gen == g.gen {
			g.fp.Store(&fpMemo{gen: s.maxGen + 1, fp: m.fp})
		}
		g.gen = s.maxGen + 1
	}
	s.maxGen = g.gen
	g.Freeze()
	s.swaps.Add(1)
	s.cur.Store(g)
	s.retainLocked(old)
	return old
}

// SetRetain sets how many previously-served graphs the store keeps for
// Rollback (0 disables retention and clears the ring). Each retained
// graph holds its full indexes in memory, so k should stay small.
func (s *Store) SetRetain(k int) {
	if k < 0 {
		k = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retain = k
	if len(s.ring) > k {
		s.ring = append(s.ring[:0:0], s.ring[len(s.ring)-k:]...)
	}
}

func (s *Store) retainLocked(old *Graph) {
	if s.retain == 0 {
		return
	}
	s.ring = append(s.ring, old)
	if len(s.ring) > s.retain {
		copy(s.ring, s.ring[len(s.ring)-s.retain:])
		for i := s.retain; i < len(s.ring); i++ {
			s.ring[i] = nil
		}
		s.ring = s.ring[:s.retain]
	}
}

// Rollback republishes the most recently retained graph and returns it
// along with the graph it displaced. The retained graph keeps its
// original (lower) generation: it may still be pinned by in-flight
// tuples, so restamping it would be a data race, and caches that hold
// entries for that generation remain exactly valid for its unchanged
// content. Swaps is not incremented — a rollback is counted in
// Rollbacks instead — but generation-keyed readers observe the change
// through Generation() as usual.
func (s *Store) Rollback() (now, dropped *Graph, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) == 0 {
		return nil, nil, ErrNoRetained
	}
	now = s.ring[len(s.ring)-1]
	s.ring[len(s.ring)-1] = nil
	s.ring = s.ring[:len(s.ring)-1]
	dropped = s.cur.Load()
	if dropped.gen > s.maxGen {
		s.maxGen = dropped.gen
	}
	s.rollbacks.Add(1)
	s.cur.Store(now)
	return now, dropped, nil
}

// Rollbacks returns how many times Rollback has republished a retained
// graph.
func (s *Store) Rollbacks() int64 { return s.rollbacks.Load() }

// GenInfo describes one graph generation held by the store.
type GenInfo struct {
	Generation int64 `json:"generation"`
	Nodes      int   `json:"nodes"`
	Triples    int   `json:"triples"`
	Live       bool  `json:"live"`
}

// History returns the live generation followed by the retained ones,
// newest first — the rollback candidates in the order Rollback would
// consume them.
func (s *Store) History() []GenInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GenInfo, 0, len(s.ring)+1)
	g := s.cur.Load()
	out = append(out, GenInfo{Generation: g.Generation(), Nodes: g.NumNodes(), Triples: g.NumTriples(), Live: true})
	for i := len(s.ring) - 1; i >= 0; i-- {
		r := s.ring[i]
		out = append(out, GenInfo{Generation: r.Generation(), Nodes: r.NumNodes(), Triples: r.NumTriples()})
	}
	return out
}
