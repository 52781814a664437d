// Package colstore implements the column-wise (struct-of-arrays) fact
// layout of the evaluation hot path: each relation stores its facts as
// flat []sym.ID columns, with blocks — the unit of the Lemma 9 test —
// as contiguous row spans in the order the builder adds them, and a
// ground-key → block open-addressing hash table probed without
// allocating. The package knows nothing about databases or queries;
// internal/db builds one Rel per relation, in the relation's block
// order, and keeps the row-oriented []Fact API as the compatibility
// surface.
package colstore

import (
	"fmt"

	"cqa/internal/sym"
)

// Rel is one relation stored column-wise: cols[i][row] is the i-th
// argument of the row-th fact, rows of one block are contiguous, and
// the block spans partition the rows. Immutable after Build and safe
// for concurrent readers.
type Rel struct {
	Name   string
	Arity  int
	KeyLen int

	cols [][]sym.ID
	off  []int32 // block b spans rows off[b]..off[b+1]; len = NumBlocks+1
	// slots is the ground-key hash table: open addressing with linear
	// probing, power-of-two size, entries store block+1 (0 = empty).
	slots []int32
}

// Rows returns the number of facts.
func (r *Rel) Rows() int {
	if r.Arity == 0 {
		if len(r.off) == 0 {
			return 0
		}
		return int(r.off[len(r.off)-1])
	}
	return len(r.cols[0])
}

// NumBlocks returns the number of blocks.
func (r *Rel) NumBlocks() int { return len(r.off) - 1 }

// Span returns the half-open row range of block b.
func (r *Rel) Span(b int32) (lo, hi int32) { return r.off[b], r.off[b+1] }

// Col returns column i as a flat slice indexed by row. Shared; callers
// must not modify it.
func (r *Rel) Col(i int) []sym.ID { return r.cols[i] }

// At returns the i-th argument of the row-th fact.
func (r *Rel) At(col int, row int32) sym.ID { return r.cols[col][row] }

// BlockByKey returns the block whose primary-key value equals key, if
// any. The probe hashes the interned key words and compares candidates
// against the key columns of the block's first row — no strings, no
// allocation. A key of the wrong length matches nothing.
func (r *Rel) BlockByKey(key []sym.ID) (int32, bool) {
	if len(key) != r.KeyLen || len(r.slots) == 0 {
		return 0, false
	}
	mask := uint32(len(r.slots) - 1)
	for i := hashIDs(key) & mask; ; i = (i + 1) & mask {
		s := r.slots[i]
		if s == 0 {
			return 0, false
		}
		b := s - 1
		lo := r.off[b]
		match := true
		for j, k := range key {
			if r.cols[j][lo] != k {
				match = false
				break
			}
		}
		if match {
			return b, true
		}
	}
}

// hashIDs is FNV-1a over the key words, one multiply-mix per word.
func hashIDs(key []sym.ID) uint32 {
	h := uint32(2166136261)
	for _, k := range key {
		h = (h ^ uint32(k)) * 16777619
	}
	return h
}

// Builder accumulates a Rel block by block. Blocks must be appended
// with all their rows together (StartBlock, then one AddRow per fact);
// every block needs at least one row, and the rows of one block must be
// key-equal — Build checks both, since a violation would corrupt the
// span/probe invariants silently.
type Builder struct {
	r    *Rel
	rows int32
}

// NewBuilder returns a builder for a relation of the given shape.
func NewBuilder(name string, arity, keyLen int) *Builder {
	r := &Rel{Name: name, Arity: arity, KeyLen: keyLen,
		cols: make([][]sym.ID, arity), off: []int32{}}
	return &Builder{r: r}
}

// StartBlock begins a new block at the current row position.
func (b *Builder) StartBlock() {
	b.r.off = append(b.r.off, b.rows)
}

// AddRow appends one fact to the current block; args must have exactly
// Arity entries (the slice is copied column-wise, not retained).
func (b *Builder) AddRow(args []sym.ID) {
	if len(args) != b.r.Arity {
		panic(fmt.Sprintf("colstore: %s row has %d args, want %d", b.r.Name, len(args), b.r.Arity))
	}
	for i, a := range args {
		b.r.cols[i] = append(b.r.cols[i], a)
	}
	b.rows++
}

// AddSpans bulk-appends blocks [b0, b1) of src: the column ranges are
// copied wholesale (one copy per column) and the span offsets shifted,
// so splicing a long run of untouched blocks from a parent relation
// costs memcpy, not per-row work. src must have the same shape as the
// relation being built; Build still validates every block, so a
// malformed source is caught the same way malformed rows are.
func (b *Builder) AddSpans(src *Rel, b0, b1 int) {
	if src.Arity != b.r.Arity || src.KeyLen != b.r.KeyLen {
		panic(fmt.Sprintf("colstore: AddSpans into %s from %s: shape mismatch",
			b.r.Name, src.Name))
	}
	if b0 < 0 || b1 > src.NumBlocks() || b0 >= b1 {
		if b0 == b1 {
			return
		}
		panic(fmt.Sprintf("colstore: AddSpans range [%d,%d) out of %s's %d blocks",
			b0, b1, src.Name, src.NumBlocks()))
	}
	lo, hi := src.off[b0], src.off[b1]
	for i := range b.r.cols {
		b.r.cols[i] = append(b.r.cols[i], src.cols[i][lo:hi]...)
	}
	shift := b.rows - lo
	for bi := b0; bi < b1; bi++ {
		b.r.off = append(b.r.off, src.off[bi]+shift)
	}
	b.rows += hi - lo
}

// Build finalizes the spans, validates the block invariants, and builds
// the ground-key hash table. The builder must not be reused.
func (b *Builder) Build() *Rel {
	r := b.r
	r.off = append(r.off, b.rows)
	nb := r.NumBlocks()
	for i := 0; i < nb; i++ {
		lo, hi := r.off[i], r.off[i+1]
		if lo >= hi {
			panic(fmt.Sprintf("colstore: %s block %d is empty", r.Name, i))
		}
		for row := lo + 1; row < hi; row++ {
			for c := 0; c < r.KeyLen; c++ {
				if r.cols[c][row] != r.cols[c][lo] {
					panic(fmt.Sprintf("colstore: %s block %d rows are not key-equal", r.Name, i))
				}
			}
		}
	}
	if nb > 0 {
		size := 1
		for size < 2*nb {
			size *= 2
		}
		r.slots = make([]int32, size)
		mask := uint32(size - 1)
		key := make([]sym.ID, r.KeyLen)
		for bi := 0; bi < nb; bi++ {
			lo := r.off[bi]
			for c := 0; c < r.KeyLen; c++ {
				key[c] = r.cols[c][lo]
			}
			i := hashIDs(key) & mask
			for r.slots[i] != 0 {
				plo := r.off[r.slots[i]-1]
				same := true
				for c := 0; c < r.KeyLen; c++ {
					if r.cols[c][plo] != key[c] {
						same = false
						break
					}
				}
				if same {
					panic(fmt.Sprintf("colstore: %s blocks %d and %d share a key", r.Name, r.slots[i]-1, bi))
				}
				i = (i + 1) & mask
			}
			r.slots[i] = int32(bi) + 1
		}
	}
	b.r = nil
	return r
}
