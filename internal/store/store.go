// Package store keeps named uncertain databases for the serving layer.
// Each upload builds a complete immutable Snapshot and swaps it in
// atomically under a write lock: requests that already resolved a name
// keep evaluating against the snapshot they hold, while new requests see
// the new version. Nothing in a published snapshot is ever mutated, so
// snapshots may be shared freely across goroutines.
package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cqa/internal/db"
	"cqa/internal/faultinject"
	"cqa/internal/match"
	"cqa/internal/shard"
	"cqa/internal/trace"
	"cqa/internal/wal"
)

// Snapshot is one immutable version of a named database.
type Snapshot struct {
	Name      string
	DB        *db.DB
	Version   uint64 // 1 for the first upload, +1 per replacement
	Facts     int
	Blocks    int
	Relations []string
	LoadedAt  time.Time

	indexMu sync.Mutex
	index   atomic.Pointer[match.Index]
	stats   *IndexStats // shared with the owning store; nil for bare snapshots

	partMu    sync.Mutex
	partition atomic.Pointer[shard.Partition]
}

// Partition returns the snapshot's key-hash partition at width n (n < 1
// is treated as 1): the span lists a cluster node evaluates one logical
// shard over. The first width requested is built once and cached for
// the snapshot version, like Index, and an Apply-derived child inherits
// it by Derive; a request naming another width gets an uncached
// partition, so a node configured for one fan-out still answers a
// router using another. Safe for concurrent use.
func (s *Snapshot) Partition(n int) *shard.Partition {
	if n < 1 {
		n = 1
	}
	p := s.partition.Load()
	if p == nil {
		p = s.buildPartition(n)
	}
	if p.N() != n {
		return shard.NewPartition(s.DB, n)
	}
	return p
}

// buildPartition caches the first partition built for the snapshot. As
// in IndexTraced, the pointer is published only after a completed
// build, under the mutex, so a build that panics is retried rather than
// cached.
func (s *Snapshot) buildPartition(n int) *shard.Partition {
	s.partMu.Lock()
	defer s.partMu.Unlock()
	if p := s.partition.Load(); p != nil {
		return p
	}
	p := shard.NewPartition(s.DB, n)
	s.partition.Store(p)
	return p
}

// Index returns the evaluation index of the snapshot — the match.Index
// over the database's blocks, with the columnar view warmed — built on
// first use and shared by every subsequent request against this
// snapshot version. Replacing the snapshot (Put) publishes a fresh
// Snapshot and therefore a fresh index, so invalidation rides the
// existing atomic swap. Safe for concurrent use.
func (s *Snapshot) Index() *match.Index {
	return s.IndexTraced(nil)
}

// IndexTraced is Index with stage tracing: the request that actually
// builds the index records the build under the "index-build" stage —
// requests that reuse a built index record nothing, so a trace showing
// this stage is the fingerprint of a cold-snapshot request. A nil
// tracer records nothing.
func (s *Snapshot) IndexTraced(tr *trace.Tracer) *match.Index {
	if ix := s.index.Load(); ix != nil {
		if s.stats != nil {
			s.stats.hits.Add(1)
		}
		return ix
	}
	// The pointer is published only on a fully successful build, under
	// the mutex (not a sync.Once, which would mark a panicked build done
	// and poison the snapshot forever): if the build panics, the next
	// request simply retries it.
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	if ix := s.index.Load(); ix != nil {
		if s.stats != nil {
			s.stats.hits.Add(1)
		}
		return ix
	}
	sp := tr.Begin(trace.StageIndexBuild)
	defer sp.End()
	if s.stats != nil {
		s.stats.building.Add(1)
		defer s.stats.building.Add(-1)
	}
	// Chaos hook: a fault here simulates an index build blowing up
	// mid-flight. It panics so the build is visibly aborted; the serving
	// layer's recovery middleware turns the panic into a structured 500.
	if err := faultinject.Fire("store.index.build"); err != nil {
		panic(err)
	}
	ix := match.NewIndex(s.DB)
	// Warm the columnar view now so its build cost is paid exactly once,
	// here, rather than by whichever request touches it first. The row
	// engines read the blocks themselves, which need no build.
	s.DB.Columnar()
	s.index.Store(ix)
	if s.stats != nil {
		s.stats.misses.Add(1)
	}
	tr.Add(trace.StageIndexBuild, trace.CtrFacts, int64(s.Facts))
	return ix
}

// IndexStats counts snapshot-index cache outcomes across a store: a
// miss is a request that had to build the index (first touch of a
// snapshot version), a hit is a request that reused it.
type IndexStats struct {
	hits     atomic.Uint64
	misses   atomic.Uint64
	building atomic.Int64
}

// Hits returns the number of index-cache hits.
func (s *IndexStats) Hits() uint64 { return s.hits.Load() }

// Misses returns the number of index-cache misses (index builds).
func (s *IndexStats) Misses() uint64 { return s.misses.Load() }

// Building returns the number of snapshot-index builds currently in
// flight. The readiness probe reports not-ready while it is non-zero,
// steering load balancers away during the expensive cold-start window.
func (s *IndexStats) Building() int64 { return s.building.Load() }

// Store is a registry of named database snapshots. The zero value is
// not ready; use New. All methods are safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	dbs   map[string]*Snapshot
	stats IndexStats

	// muts holds the per-name group-commit serializers (see mutate.go).
	muts map[string]*mutator
	// wal, when set, journals every mutation before it publishes.
	wal *wal.Log
}

// New returns an empty store.
func New() *Store {
	return &Store{dbs: make(map[string]*Snapshot)}
}

// IndexStats exposes the snapshot-index cache counters.
func (s *Store) IndexStats() *IndexStats { return &s.stats }

// Put publishes d as the new snapshot of the named database and returns
// it. The caller must not modify d afterwards; the store and all
// readers treat it as frozen.
func (s *Store) Put(name string, d *db.DB) *Snapshot {
	snap := &Snapshot{
		Name:      name,
		DB:        d,
		Facts:     d.Len(),
		Blocks:    d.NumBlocks(),
		Relations: d.Relations(),
		LoadedAt:  time.Now(),
		stats:     &s.stats,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap.Version = 1
	if prev, ok := s.dbs[name]; ok {
		snap.Version = prev.Version + 1
	}
	if s.wal != nil {
		facts := d.Facts()
		rec := wal.Record{Op: "put", Name: name, Version: snap.Version,
			Facts: make([]string, len(facts))}
		for i, f := range facts {
			rec.Facts[i] = f.String()
		}
		if err := s.wal.Append(rec); err != nil {
			panic(fmt.Errorf("store: wal append: %w", err))
		}
	}
	s.dbs[name] = snap
	return snap
}

// PutFacts parses a facts text (one fact per line, signatures inferred
// from the bar syntax) and publishes it under the name. Uploads whose
// mode-c relations violate their primary key are rejected: such inputs
// are not legal instances of CERTAINTY(q).
func (s *Store) PutFacts(name, text string) (*Snapshot, error) {
	d, err := db.ParseFacts(nil, text)
	if err != nil {
		return nil, err
	}
	if !d.ConsistentFor() {
		return nil, fmt.Errorf("store: a mode-c relation of %q violates its primary key", name)
	}
	return s.Put(name, d), nil
}

// Get returns the current snapshot of the named database.
func (s *Store) Get(name string) (*Snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap, ok := s.dbs[name]
	return snap, ok
}

// Delete removes the named database; it reports whether it existed.
func (s *Store) Delete(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.dbs[name]
	if ok && s.wal != nil {
		if err := s.wal.Append(wal.Record{Op: "delete", Name: name}); err != nil {
			panic(fmt.Errorf("store: wal append: %w", err))
		}
	}
	delete(s.dbs, name)
	return ok
}

// List returns the current snapshots sorted by name.
func (s *Store) List() []*Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Snapshot, 0, len(s.dbs))
	for _, snap := range s.dbs {
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of named databases.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.dbs)
}
