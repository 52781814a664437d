package match

import (
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/query"
)

// Ref addresses one fact of a constrained block: Block is the block's
// ordinal in Constraints.Blocks, Slot the fact's position in that
// block's Facts.
type Ref struct{ Block, Slot int32 }

// Constraints is the repair-constraint form of a query over a database.
// A repair chooses one fact per block; it satisfies q exactly when it
// keeps every fact of some consistent embedding of q. So each
// consistent embedding is one constraint over (block, fact) choices,
// and the coNP falsifying-repair search and the #CERTAINTY repair
// counter are two questions about the same constraint set.
type Constraints struct {
	// Blocks are the blocks some consistent embedding touches, numbered
	// in first-touch order. The choice in any other block cannot decide
	// whether a repair satisfies q.
	Blocks []db.Block
	// Cons holds one constraint per consistent embedding, in the order
	// the join yields them. Refs follow the query's atom order; a
	// fact two atoms share appears once.
	Cons [][]Ref
	// Embeddings counts every embedding enumerated, including the
	// inconsistent ones (two distinct facts of one block) that no repair
	// can keep whole and that therefore constrain nothing.
	Embeddings int

	ord map[*db.Fact]int32 // block identity (its first fact) -> ordinal
}

// Constrained reports whether some constraint touches the block.
func (c *Constraints) Constrained(b db.Block) bool {
	_, ok := c.ord[&b.Facts[0]]
	return ok
}

// Constraints streams the embeddings of a non-empty query q once and
// returns its repair-constraint form over the index. The checker is
// polled by the join; a tripped checker returns its error and no form.
// A nil checker enforces nothing.
func (ix *Index) Constraints(q query.Query, chk *evalctx.Checker) (*Constraints, error) {
	cs := &Constraints{ord: make(map[*db.Fact]int32)}
	kept := make([]db.Block, 0, q.Len()) // the block of each kept ref
	var refs []Ref                       // backs the constraints, which slice it
	p := compile(q, nil)
	ix.walk(p, make([]query.Const, len(p.vars)), chk, func(hits []hit) bool {
		cs.Embeddings++
		n := len(refs)
		kept = kept[:0]
	next:
		for i, h := range hits {
			for _, g := range hits[:i] {
				if !g.sameBlock(h) {
					continue
				}
				if g.slot != h.slot {
					// Two distinct facts of one block never survive a
					// repair together: the embedding constrains nothing.
					refs = refs[:n]
					return true
				}
				continue next // a fact an earlier atom already holds
			}
			refs = append(refs, Ref{Slot: h.slot})
			kept = append(kept, h.blk)
		}
		c := refs[n:len(refs):len(refs)]
		// Number the blocks only once the embedding proved consistent,
		// so a dropped embedding leaves no block behind.
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
	if err := chk.Err(); err != nil {
		return nil, err
	}
	return cs, nil
}

// Incidence numbers the facts of a form flat and lists the constraints
// through each fact. Block b's slot s is fact Off[b]+s, Off[len(Blocks)]
// is the fact count, and On[At[f]:At[f+1]] lists the constraints through
// fact f in ascending order.
type Incidence struct{ Off, At, On []int32 }

// Incidence builds the form's flat fact numbering and its fact to
// constraint incidence.
func (c *Constraints) Incidence() Incidence {
	off := make([]int32, len(c.Blocks)+1)
	for b, blk := range c.Blocks {
		off[b+1] = off[b] + int32(len(blk.Facts))
	}
	// Count each fact's constraints, sum them so at[f] ends f's run, then
	// fill the runs back to front, leaving at[f] at their starts.
	at := make([]int32, off[len(c.Blocks)]+1)
	for _, con := range c.Cons {
		for _, r := range con {
			at[off[r.Block]+r.Slot]++
		}
	}
	for f := 1; f < len(at); f++ {
		at[f] += at[f-1]
	}
	on := make([]int32, at[len(at)-1])
	for ci := len(c.Cons) - 1; ci >= 0; ci-- {
		for _, r := range c.Cons[ci] {
			f := off[r.Block] + r.Slot
			at[f]--
			on[at[f]] = int32(ci)
		}
	}
	return Incidence{Off: off, At: at, On: on}
}

// Purified is Lemma 1 on the form. A block with a fact in no live
// constraint is dropped, that fact becomes its witness, and every
// constraint through the block dies; dropping repeats until each fact
// of each surviving block lies on a live constraint. For a
// self-join-free query every embedding is consistent, so this is
// exactly round-based purification of the database, with no second
// join. Purified returns the form of the purified database — the live
// constraints in order, over the surviving blocks renumbered in
// first-touch order, with Embeddings counting the live constraints —
// and the witness of every dropped block in drop order. A witness was in no live constraint when its block went, so
// a falsifying choice over the surviving blocks stays falsifying with
// the witnesses added.
func (c *Constraints) Purified() (*Constraints, []db.Fact) {
	in := c.Incidence()
	off, at, on := in.Off, in.At, in.On
	live := make([]int32, len(at)-1) // live constraints through each fact
	for f := range live {
		live[f] = at[f+1] - at[f]
	}
	// drops lists the dropped blocks with their witness slots; the loop
	// below works through it while it grows.
	var drops []Ref
	gone := make([]bool, len(c.Blocks))
	for b := range c.Blocks {
		for f := off[b]; f < off[b+1]; f++ {
			if live[f] == 0 {
				drops = append(drops, Ref{Block: int32(b), Slot: f - off[b]})
				gone[b] = true
				break
			}
		}
	}
	dead := make([]bool, len(c.Cons))
	for i := 0; i < len(drops); i++ {
		b := drops[i].Block
		for _, ci := range on[at[off[b]]:at[off[b+1]]] {
			if dead[ci] {
				continue
			}
			dead[ci] = true
			for _, r := range c.Cons[ci] {
				f := off[r.Block] + r.Slot
				if live[f]--; live[f] == 0 && !gone[r.Block] {
					drops = append(drops, r)
					gone[r.Block] = true
				}
			}
		}
	}
	pc := &Constraints{ord: make(map[*db.Fact]int32, len(c.Blocks)-len(drops))}
	renum := make([]int32, len(c.Blocks)) // new ordinal + 1; 0 = not yet touched
	refs := make([]Ref, len(on))          // backs the live constraints
	for ci, con := range c.Cons {
		if dead[ci] {
			continue
		}
		nc := refs[:len(con):len(con)]
		refs = refs[len(con):]
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
	witnesses := make([]db.Fact, len(drops))
	for i, r := range drops {
		witnesses[i] = c.Blocks[r.Block].Facts[r.Slot]
	}
	return pc, witnesses
}
