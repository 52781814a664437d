package db

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// OpKind is the kind of one delta operation.
type OpKind uint8

const (
	// OpInsert adds one fact (a no-op when it is already present).
	OpInsert OpKind = iota
	// OpDelete removes one fact (a no-op when it is absent).
	OpDelete
	// OpUpsert replaces the full contents of one block with the given
	// key-equal facts, creating the block when it does not exist.
	OpUpsert
)

// Op is one mutation of a Delta.
type Op struct {
	Kind  OpKind
	Fact  Fact   // OpInsert, OpDelete
	Block []Fact // OpUpsert: the new contents of one block
}

// Delta is an ordered list of mutations. Operations on the same relation
// apply in order (an insert followed by a delete of the same fact nets
// out); operations on different relations commute.
type Delta struct {
	Ops []Op
}

// Insert appends an insert op.
func (d *Delta) Insert(f Fact) { d.Ops = append(d.Ops, Op{Kind: OpInsert, Fact: f}) }

// Delete appends a delete op.
func (d *Delta) Delete(f Fact) { d.Ops = append(d.Ops, Op{Kind: OpDelete, Fact: f}) }

// UpsertBlock appends an upsert op replacing one block. The facts must be
// non-empty and key-equal; Apply validates and rejects otherwise. The
// slice is copied.
func (d *Delta) UpsertBlock(facts []Fact) {
	d.Ops = append(d.Ops, Op{Kind: OpUpsert, Block: append([]Fact(nil), facts...)})
}

// Empty reports whether the delta carries no operations.
func (d Delta) Empty() bool { return len(d.Ops) == 0 }

// Validate checks the structural well-formedness of the delta (upsert
// blocks non-empty, key-equal, and of one signature) without applying
// it. Apply performs the same checks; Validate lets a batcher reject a
// malformed request individually before merging deltas into one commit.
// Agreement with the signatures the database stores is Apply's check.
func (d Delta) Validate() error {
	for _, op := range d.Ops {
		if op.Kind != OpUpsert {
			continue
		}
		if len(op.Block) == 0 {
			return fmt.Errorf("db: upsert of an empty block")
		}
		f0 := op.Block[0]
		bid := f0.BlockID()
		for _, f := range op.Block[1:] {
			if f.BlockID() != bid {
				return fmt.Errorf("db: upsert block mixes keys %q and %q",
					f0.String(), f.String())
			}
			if f.Rel != f0.Rel {
				return fmt.Errorf("db: upsert block mixes signatures %s and %s", f0.Rel, f.Rel)
			}
		}
	}
	return nil
}

// ApplyStats summarizes the net effect of an Apply.
type ApplyStats struct {
	// Inserted and Deleted count facts actually added and removed
	// (including through upserts). Noops counts operations with no
	// effect (duplicate inserts, deletes of absent facts, upserts that
	// reproduce the existing block).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	Upserts  int `json:"upserts"`
	Noops    int `json:"noops"`

	BlocksAdded    int `json:"blocks_added"`
	BlocksRemoved  int `json:"blocks_removed"`
	BlocksModified int `json:"blocks_modified"`

	// Rels lists the relations with a net change, sorted.
	Rels []string `json:"rels,omitempty"`
}

// RelChange is the net block-level difference of one relation between a
// parent version and the child Apply built.
type RelChange struct {
	// Added holds the child's blocks absent from the parent, in the
	// order they were appended to the child's block list (new blocks
	// always append at the end, so untouched block positions are stable).
	Added []Block
	// Removed holds the parent's blocks that the child no longer has.
	Removed []Block
	// Modified holds the child's blocks that an op changed and whose ID
	// exists in both versions (an insert a later delete undid still
	// counts). Their position in the block list is unchanged.
	Modified []Block
}

// ChangeSet records the net difference between a parent version and the
// child built by Apply, at block granularity per relation. The columnar
// and shard layers use it to patch their derived structures in O(delta)
// instead of rescanning the relation.
type ChangeSet struct {
	Rels map[string]*RelChange
}

// Empty reports whether the change set carries no net change.
func (c *ChangeSet) Empty() bool { return c == nil || len(c.Rels) == 0 }

// ApplyResult carries the bookkeeping of one Apply: summary statistics
// and the block-granular change set the derived layers patch from.
type ApplyResult struct {
	Stats   ApplyStats
	Changes *ChangeSet
}

// Apply builds the next version of the database by structural sharing:
// the child aliases every untouched relation segment of the receiver and
// clones only the touched ones, with copy-on-write fact slices inside.
// The receiver is never modified in a way readers can observe, so Apply
// is safe to run concurrently with readers of the receiver (but not with
// other mutations of it). A delta with no net effect returns the
// receiver itself.
//
// Every fact of the delta must carry the signature stored for its
// relation name (or, for a relation with no facts, agree with the
// delta's other facts of that name): a conflicting fact fails the whole
// Apply with an error naming both signatures.
//
// Every op goes through one block edit (see edit), which clones a
// touched segment only when the op changes its block. Cost: an op with
// no effect (a duplicate insert, a delete of an absent fact, an upsert
// that reproduces its block) is O(delta) and clones nothing; the first
// real edit of a relation clones its block list and key table
// (O(blocks of the relation)), and a delete that empties a block also
// compacts that list once at the end.
func (d *DB) Apply(delta Delta) (*DB, error) {
	child, _, err := d.ApplyChanges(delta)
	return child, err
}

// applyLog records the relations one Apply has written, by name.
type applyLog map[string]*segWork

// segWork tracks one written relation during an Apply.
type segWork struct {
	parent *relSeg // the receiver's segment; nil for a new relation
	// touched lists block IDs in first-touch order; seen dedupes.
	touched    []string
	seen       map[string]bool
	tombstones bool
}

func (w *segWork) touch(bid string, tombstone bool) {
	if !w.seen[bid] {
		w.seen[bid] = true
		w.touched = append(w.touched, bid)
	}
	w.tombstones = w.tombstones || tombstone
}

// ApplyChanges is Apply returning the change set and statistics the
// derived layers (columnar view, shard partition, store) patch from.
func (d *DB) ApplyChanges(delta Delta) (*DB, *ApplyResult, error) {
	res := &ApplyResult{Changes: &ChangeSet{Rels: make(map[string]*RelChange)}}
	if delta.Empty() {
		return d, res, nil
	}
	if err := delta.Validate(); err != nil {
		return nil, nil, err
	}
	child := &DB{
		rels:        maps.Clone(d.rels),
		relOrder:    d.relOrder,
		nfacts:      d.nfacts,
		nblocks:     d.nblocks,
		sharedOrder: true,
	}
	log := make(applyLog)
	st := &res.Stats
	for _, op := range delta.Ops {
		var (
			old     []Fact
			changed bool
			err     error
		)
		switch op.Kind {
		case OpInsert:
			if _, changed, err = child.edit(log, op.Fact, adding(op.Fact)); changed {
				st.Inserted++
			}
		case OpDelete:
			f := op.Fact
			_, changed, err = child.edit(log, f, func(cur []Fact) []Fact {
				if i := indexOf(cur, f); i >= 0 {
					return slices.Concat(cur[:i], cur[i+1:])
				}
				return cur
			})
			if changed {
				st.Deleted++
			}
		case OpUpsert:
			fs := dedupeFacts(op.Block)
			old, changed, err = child.edit(log, fs[0], func(cur []Fact) []Fact {
				if sameFactSet(cur, fs) {
					return cur
				}
				return fs
			})
			if changed {
				st.Deleted += len(old)
				st.Inserted += len(fs)
				st.Upserts++
			}
		}
		if err != nil {
			return nil, nil, err
		}
		if !changed {
			st.Noops++
		}
	}

	// Per touched relation: compact tombstoned blocks, then compute the
	// net block-level change against the parent.
	for name, w := range log {
		seg := child.rels[name]
		if w.tombstones {
			kept := seg.blocks[:0]
			for _, b := range seg.blocks {
				if b.Facts != nil {
					kept = append(kept, b)
				}
			}
			seg.blocks = kept
			seg.byID = make(map[string]int, len(kept))
			for i, b := range kept {
				seg.byID[b.ID] = i
			}
		}
		rc := &RelChange{}
		for _, bid := range w.touched {
			var pblk Block
			inParent := false
			if w.parent != nil {
				if pi, ok := w.parent.byID[bid]; ok {
					pblk, inParent = w.parent.blocks[pi], true
				}
			}
			cblk := Block{}
			ci, inChild := seg.byID[bid]
			if inChild {
				cblk = seg.blocks[ci]
			}
			switch {
			case inParent && !inChild:
				rc.Removed = append(rc.Removed, pblk)
			case !inParent && inChild:
				rc.Added = append(rc.Added, cblk)
			case inParent && inChild && !sameFacts(pblk.Facts, cblk.Facts):
				rc.Modified = append(rc.Modified, cblk)
			}
		}
		if len(rc.Added) == 0 && len(rc.Removed) == 0 && len(rc.Modified) == 0 {
			// The relation netted out (an insert a delete undid):
			// restore the alias so downstream layers keep sharing the
			// parent's derived structures.
			if w.parent != nil {
				child.rels[name] = w.parent
			}
			continue
		}
		res.Changes.Rels[name] = rc
		st.BlocksAdded += len(rc.Added)
		st.BlocksRemoved += len(rc.Removed)
		st.BlocksModified += len(rc.Modified)
	}
	if res.Changes.Empty() {
		return d, res, nil
	}
	st.Rels = make([]string, 0, len(res.Changes.Rels))
	for name := range res.Changes.Rels {
		st.Rels = append(st.Rels, name)
	}
	sort.Strings(st.Rels)

	// Mark sharing: aliased segments must clone before any mutation;
	// cloned segments already carry cow, and the parent's fact slices
	// are now aliased by the clones, so the parent flips cow too. These
	// flags are only read by mutations, never by readers, so setting
	// them here does not race with concurrent reads of the parent.
	for name, seg := range d.rels {
		if child.rels[name] == seg {
			seg.shared = true
		}
		seg.cow = true
	}

	// Derive the columnar view incrementally when the parent has one
	// built, keeping the interned walk (and its compiled programs for
	// untouched relations) warm across the write.
	if pc := d.colMemo.Load(); pc != nil {
		child.colMemo.Store(deriveColumnar(d, pc, child, res.Changes))
	}
	return child, res, nil
}

// dedupeFacts drops exact duplicates, preserving first-occurrence order.
func dedupeFacts(fs []Fact) []Fact {
	out := make([]Fact, 0, len(fs))
	for _, f := range fs {
		if indexOf(out, f) < 0 {
			out = append(out, f)
		}
	}
	return out
}

// sameFactSet reports set equality of two small fact slices.
func sameFactSet(a, b []Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for _, f := range a {
		if indexOf(b, f) < 0 {
			return false
		}
	}
	return true
}
