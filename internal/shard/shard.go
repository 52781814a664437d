// Package shard is the key-hash partition of a snapshot's blocks that
// the scatter-gather tier (package cluster) splits its work by. A
// db.DB snapshot is divided into N logical shards by a hash of the
// block key — every block (the unit of the Lemma 9 test) lives entirely
// on one shard — and a Partition lists, per shard and relation, the
// positions of the blocks that shard owns.
//
// The partition splits the top-level *work*, not the data closure:
// deeper levels of the Lemma 10 recursion probe blocks of other
// relations, so every shard evaluates its residues against the full
// shared snapshot. That keeps the merge exact — the top level of the
// rewriting is an existential over one relation's blocks, so FO
// certainty is an OR of per-shard verdicts and certain answers a union
// of per-shard answer sets.
package shard

import (
	"maps"

	"cqa/internal/db"
)

// Of returns the shard owning the block with the given ID, for n
// shards: an FNV-1a hash of the canonical block ID modulo n. The
// assignment is a pure function of the block key, so every build of the
// same snapshot at the same width partitions identically — which is
// what lets replicated nodes agree on ownership without coordination.
func Of(blockID string, n int) int {
	if n <= 1 {
		return 0
	}
	// FNV-1a, 64-bit, inlined so hashing a block allocates nothing.
	h := uint64(14695981039346656037)
	for i := 0; i < len(blockID); i++ {
		h ^= uint64(blockID[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// Partition is the Of-hash partition of one snapshot's blocks at one
// width: for every relation with facts, the positions of the blocks
// each shard owns. A position indexes the relation's BlocksOf list,
// which is also the span order of its columnar view. It is immutable
// once built and safe for concurrent use; the block data itself stays
// in the snapshot — a partition is a set of views, not a copy.
type Partition struct {
	db *db.DB
	n  int
	// spans[rel][id] are the positions of the blocks of rel that shard
	// id owns, in block order. Every per-shard slice is non-nil, so a
	// span-restricted walk over a shard owning nothing visits nothing
	// (nil would mean every block).
	spans map[string][][]int32
}

// NewPartition partitions d's blocks n ways (n < 1 is treated as 1) in
// one pass that hashes each block once. The caller must not modify d
// afterwards.
func NewPartition(d *db.DB, n int) *Partition {
	if n < 1 {
		n = 1
	}
	names := d.Relations()
	p := &Partition{db: d, n: n, spans: make(map[string][][]int32, len(names))}
	for _, name := range names {
		p.spans[name] = splitRel(d.BlocksOf(name), n)
	}
	return p
}

// splitRel assigns every block of a relation to its owning shard.
func splitRel(blocks []db.Block, n int) [][]int32 {
	out := make([][]int32, n)
	for i := range out {
		out[i] = []int32{}
	}
	for bi, blk := range blocks {
		id := Of(blk.ID, n)
		out[id] = append(out[id], int32(bi))
	}
	return out
}

// Derive builds the partition of an Apply-derived snapshot from this
// one without re-partitioning the database: only the relations the
// change set names are split again (their block positions moved);
// every other relation aliases this partition's span lists.
// The child must be the result of applying the change set to this
// partition's database. Derive only reads the receiver, so it is safe
// while the parent still serves requests.
func (p *Partition) Derive(child *db.DB, ch *db.ChangeSet) *Partition {
	np := &Partition{db: child, n: p.n, spans: maps.Clone(p.spans)}
	for name := range ch.Rels {
		if blocks := child.BlocksOf(name); blocks != nil {
			np.spans[name] = splitRel(blocks, np.n)
		} else {
			delete(np.spans, name)
		}
	}
	return np
}

// N returns the partition width.
func (p *Partition) N() int { return p.n }

// View returns the face of shard id (0 <= id < N()).
func (p *Partition) View(id int) View { return View{ID: id, DB: p.db, p: p} }

// View is the read-only face of one shard: its span lists plus the full
// snapshot for residue probes.
type View struct {
	// ID is the shard number, 0-based.
	ID int
	// DB is the full shared snapshot; lookups that cross shard
	// boundaries (BlockByKey probes of other relations) go here.
	DB *db.DB

	p *Partition
}

// SpansOf returns the positions of the shard-owned blocks of the named
// relation, valid against the snapshot's columnar view — the input of
// the span-restricted walks (rewrite.Eliminator.CertainOverSpans,
// SweepSpans). It is nil when the snapshot has no facts for the
// relation, where those walks decide false on their own. The slice is
// shared; do not modify.
func (v View) SpansOf(relName string) []int32 {
	if sp := v.p.spans[relName]; sp != nil {
		return sp[v.ID]
	}
	return nil
}

// NumBlocks returns the number of blocks the shard owns.
func (v View) NumBlocks() int {
	n := 0
	for _, sp := range v.p.spans {
		n += len(sp[v.ID])
	}
	return n
}
