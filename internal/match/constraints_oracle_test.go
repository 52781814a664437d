package match

import (
	"fmt"
	"reflect"

	"cqa/internal/db"
	"cqa/internal/query"
)

// addressForm is a repair-constraint form numbered by block address:
// the form Constraints built before blocks were numbered by (relation,
// position), kept as its reference.
type addressForm struct {
	*Constraints
	ord map[*db.Fact]int32 // block identity (its first fact) -> ordinal
}

// constraintsByAddress streams the embeddings of q once and numbers
// their blocks in first-touch order through a map keyed by each block's
// first fact, appending every kept ref's block per embedding.
func constraintsByAddress(ix *Index, q query.Query) *addressForm {
	cs := &addressForm{Constraints: &Constraints{}, ord: make(map[*db.Fact]int32)}
	kept := make([]db.Block, 0, q.Len()) // the block of each kept ref
	var refs []Ref                       // backs the constraints, which slice it
	p := compile(q, nil)
	walk(p, p.resolve(ix.DB), make([]query.Const, len(p.vars)), nil, func(hits []hit) bool {
		cs.Embeddings++
		n := len(refs)
		kept = kept[:0]
	next:
		for i, h := range hits {
			for _, g := range hits[:i] {
				if &g.blk.Facts[0] != &h.blk.Facts[0] {
					continue
				}
				if g.slot != h.slot {
					refs = refs[:n]
					return true
				}
				continue next
			}
			refs = append(refs, Ref{Slot: h.slot})
			kept = append(kept, h.blk)
		}
		c := refs[n:len(refs):len(refs)]
		for i, blk := range kept {
			b, ok := cs.ord[&blk.Facts[0]]
			if !ok {
				b = int32(len(cs.Blocks))
				cs.ord[&blk.Facts[0]] = b
				cs.Blocks = append(cs.Blocks, blk)
			}
			c[i].Block = b
		}
		cs.Cons = append(cs.Cons, c)
		return true
	})
	return cs
}

// purifiedByAddress is Purified on an address-numbered form: the live
// constraints over the surviving blocks renumbered in first-touch order,
// and the witnesses in drop order.
func (c *addressForm) purifiedByAddress() (*addressForm, []db.Fact) {
	p := c.purge()
	pc := &addressForm{Constraints: &Constraints{}, ord: make(map[*db.Fact]int32)}
	renum := make([]int32, len(c.Blocks)) // new ordinal + 1; 0 = not yet touched
	for ci, con := range c.Cons {
		if p.dead[ci] {
			continue
		}
		nc := make([]Ref, len(con))
		for i, r := range con {
			if renum[r.Block] == 0 {
				blk := c.Blocks[r.Block]
				pc.ord[&blk.Facts[0]] = int32(len(pc.Blocks))
				pc.Blocks = append(pc.Blocks, blk)
				renum[r.Block] = int32(len(pc.Blocks))
			}
			nc[i] = Ref{Block: renum[r.Block] - 1, Slot: r.Slot}
		}
		pc.Cons = append(pc.Cons, nc)
	}
	pc.Embeddings = len(pc.Cons)
	witnesses := make([]db.Fact, len(p.drops))
	for i, r := range p.drops {
		witnesses[i] = c.Blocks[r.Block].Facts[r.Slot]
	}
	return pc, witnesses
}

// CheckConstraintsOracle compares the form Constraints builds for q over
// d with the address-numbered reference: the same blocks (by first-fact
// address, in order), constraints and embedding count, the same answer
// from Constrained on every block of d, and the same Purified form and
// witnesses. It is exported to the external test package, which runs it
// on generators that import match.
func CheckConstraintsOracle(q query.Query, d *db.DB) error {
	ix := NewIndex(d)
	got, err := ix.Constraints(q, nil)
	if err != nil {
		return err
	}
	want := constraintsByAddress(ix, q)
	if err := sameForm(d, got, want); err != nil {
		return fmt.Errorf("form: %w", err)
	}
	gotP, gotW := got.Purified()
	wantP, wantW := want.purifiedByAddress()
	if err := sameForm(d, gotP, wantP); err != nil {
		return fmt.Errorf("purified form: %w", err)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		return fmt.Errorf("witnesses %v, want %v", gotW, wantW)
	}
	return nil
}

// sameForm reports the first difference between a form and its
// address-numbered reference.
func sameForm(d *db.DB, got *Constraints, want *addressForm) error {
	if len(got.Blocks) != len(want.Blocks) {
		return fmt.Errorf("%d blocks, want %d", len(got.Blocks), len(want.Blocks))
	}
	for b := range got.Blocks {
		if &got.Blocks[b].Facts[0] != &want.Blocks[b].Facts[0] || got.Blocks[b].ID != want.Blocks[b].ID {
			return fmt.Errorf("block %d is %s, want %s", b, got.Blocks[b].Facts[0], want.Blocks[b].Facts[0])
		}
	}
	if !reflect.DeepEqual(got.Cons, want.Cons) || got.Embeddings != want.Embeddings {
		return fmt.Errorf("constraints %v (%d embeddings), want %v (%d)", got.Cons, got.Embeddings, want.Cons, want.Embeddings)
	}
	for _, name := range d.RelationOrder() {
		for pos, b := range d.BlocksOf(name) {
			if _, wantC := want.ord[&b.Facts[0]]; got.Constrained(name, pos) != wantC {
				return fmt.Errorf("Constrained(%s, %d) = %v, want %v", name, pos, !wantC, wantC)
			}
		}
	}
	return nil
}
