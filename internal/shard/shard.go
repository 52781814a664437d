// Package shard is the key-partitioned scatter-gather tier of the
// evaluation engines: a deterministic "cluster in a process". A
// db.DB snapshot is split into N shards by a hash of the block key —
// every block (the unit of the Lemma 9 test) lives entirely on one
// shard — and each shard owns an independently built block index over
// its part plus a channel-based worker that executes evaluation tasks
// against it. A coordinator (in package core) scatters the top level of
// an evaluation across the shards and merges: FO certainty is an
// early-exit existential over the shards' block partitions, and certain
// answers are a set union of per-shard answer sets.
//
// Sharding partitions the top-level *work*, not the data closure:
// deeper levels of the Lemma 10 recursion probe blocks of other
// relations, so every shard task evaluates its residues against the
// full shared snapshot. That keeps the merge semantics exact — a shard
// returning true is definitive, false requires every shard, and a shard
// failure is an error, never a wrong boolean.
//
// The cluster behaviors of a real multi-node topology are modeled
// in-process and are deterministic under test: per-shard health states
// (Building → Ready / Unhealthy) feed the readiness probe, the
// faultinject hooks "shard.index" and "shard.eval" (and their
// per-shard variants "shard.index.<id>" / "shard.eval.<id>") inject
// latency and failures, and hedged duplicate dispatch bounds the
// latency cost of a straggler shard.
package shard

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"cqa/internal/db"
	"cqa/internal/trace"
)

// Workers normalizes a requested worker count the way every pool in the
// repository should: a request of <= 0 selects GOMAXPROCS, and the
// result is clamped to the number of jobs so no worker is ever idle by
// construction. Used by the flat certain-answers pool and the shard
// pool's parallel index build.
func Workers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// Of returns the shard owning the block with the given ID, for n
// shards: an FNV-1a hash of the canonical block ID modulo n. The
// assignment is a pure function of the block key, so every build of the
// same snapshot at the same shard count partitions identically.
func Of(blockID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(blockID))
	return int(h.Sum64() % uint64(n))
}

// Health is the state of one shard as fed to the readiness probe.
type Health int32

const (
	// HealthBuilding is a shard whose block index build has not yet
	// completed; readiness fails while any shard reports it.
	HealthBuilding Health = iota
	// HealthReady is a shard serving evaluations normally.
	HealthReady
	// HealthUnhealthy is a shard whose last index build or evaluation
	// failed for a reason other than the request's own limits.
	HealthUnhealthy
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case HealthBuilding:
		return "building"
	case HealthReady:
		return "ready"
	case HealthUnhealthy:
		return "unhealthy"
	}
	return "unknown"
}

// View is the read-only face of one shard handed to an evaluation task:
// the shard's own span partition plus the full snapshot for residue
// probes.
type View struct {
	// ID is the shard number, 0-based.
	ID int
	// DB is the full shared snapshot; lookups that cross shard
	// boundaries (BlockByKey probes of other relations) go here.
	DB *db.DB

	s *shardState
}

// SpansOf returns the shard-owned columnar block indices of the named
// relation, valid against the snapshot's columnar view — the input of
// the span-restricted walks (rewrite.Eliminator.CertainOverSpans,
// SweepSpans). It is nil when the snapshot has no facts for the
// relation, where those walks decide false on their own. The slice is
// shared; do not modify.
func (v *View) SpansOf(relName string) []int32 {
	return v.s.spans[relName]
}

// NumBlocks returns the number of blocks this shard owns.
func (v *View) NumBlocks() int { return v.s.numBlocks }

// NewView builds a standalone view of shard id (of n) over d, outside
// any pool: the same Of-hash partition a pool shard would own, built
// synchronously on the caller. A remote cluster node uses it when the
// partition width a request names differs from the width of the pool
// its snapshot already cached — correctness must not depend on every
// node being configured with the same local fan-out. The build fires
// the "shard.index" fault hooks and wraps a failure in ErrFailed,
// exactly like a pool build.
func NewView(d *db.DB, id, n int) (*View, error) {
	if n < 1 {
		n = 1
	}
	if id < 0 || id >= n {
		return nil, fmt.Errorf("shard: view id %d out of range [0,%d)", id, n)
	}
	p := &Pool{db: d, n: n}
	s := &shardState{id: id, pool: p, hist: trace.NewHistogram(nil)}
	if err := s.build(); err != nil {
		return nil, fmt.Errorf("%w: shard %d index build: %w", ErrFailed, id, err)
	}
	s.built.Store(true)
	return &View{ID: id, DB: d, s: s}, nil
}
