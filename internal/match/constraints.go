package match

import (
	"slices"

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
//
// A block of the database is identified by (relation, position in the
// relation's blocks); the form numbers the ones it touches through a
// dense array per relation, indexed by position.
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

	rels []string       // the relations of q, by relation index
	num  [][]int32      // per relation index: block position -> ordinal + 1, 0 = untouched
	at   []blockAddress // per ordinal: the block's (relation index, position)
}

// blockAddress is a block's identity within one database version.
type blockAddress struct{ rel, pos int32 }

// Constrained reports whether some constraint touches the block at pos
// in the named relation's blocks (db.DB.BlocksOf).
func (c *Constraints) Constrained(rel string, pos int) bool {
	num := c.numbering(rel)
	return num != nil && num[pos] != 0
}

// numbering returns the named relation's dense numbering, nil for a
// relation q does not mention.
func (c *Constraints) numbering(rel string) []int32 {
	if i := slices.Index(c.rels, rel); i >= 0 {
		return c.num[i]
	}
	return nil
}

// Constraints streams the embeddings of a non-empty query q once and
// returns its repair-constraint form over the index. Blocks are
// numbered as the walk first touches them, through the dense per
// relation numbering, and recorded by address; the Blocks list is
// built once after the walk, and every constraint is sliced from one
// refs array. The checker is polled by the join; a tripped checker
// returns its error and no form. A nil checker enforces nothing.
func (ix *Index) Constraints(q query.Query, chk *evalctx.Checker) (*Constraints, error) {
	p := compile(q, nil)
	rels := p.resolve(ix.DB)
	cs := &Constraints{rels: p.rels, num: make([][]int32, len(rels))}
	for i, r := range rels {
		cs.num[i] = make([]int32, len(r.Blocks()))
	}
	relOf := make([]int32, q.Len()) // atom -> relation index
	for _, st := range p.steps {
		relOf[st.atom] = int32(st.rel)
	}
	kept := make([]int32, 0, q.Len()) // the relation of each kept ref
	var refs []Ref                    // every constraint's refs, back to back
	var ends []int32                  // constraint i ends at refs[ends[i]]
	walk(p, rels, make([]query.Const, len(p.vars)), chk, func(hits []hit) bool {
		cs.Embeddings++
		n := len(refs)
		kept = kept[:0]
	next:
		for i, h := range hits {
			for j, g := range hits[:i] {
				if relOf[j] != relOf[i] || g.pos != h.pos {
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
			refs = append(refs, Ref{Block: h.pos, Slot: h.slot})
			kept = append(kept, relOf[i])
		}
		// Number the blocks only once the embedding proved consistent,
		// so a dropped embedding leaves no block behind. Until then a
		// ref's Block holds the block's position.
		for k, ri := range kept {
			r := &refs[n+k]
			b := cs.num[ri][r.Block]
			if b == 0 {
				cs.at = append(cs.at, blockAddress{ri, r.Block})
				b = int32(len(cs.at))
				cs.num[ri][r.Block] = b
			}
			r.Block = b - 1
		}
		ends = append(ends, int32(len(refs)))
		return true
	})
	if err := chk.Err(); err != nil {
		return nil, err
	}
	if len(ends) == 0 {
		return cs, nil
	}
	cs.Blocks = make([]db.Block, len(cs.at))
	for b, a := range cs.at {
		cs.Blocks[b] = rels[a.rel].Blocks()[a.pos]
	}
	cs.Cons = make([][]Ref, len(ends))
	lo := int32(0)
	for i, hi := range ends {
		cs.Cons[i] = refs[lo:hi:hi]
		lo = hi
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

// purge is the Lemma 1 fixpoint on a form, kept as a work list so
// that a caller can drop more blocks and settle again. A block goes
// when one of its facts lies on no live constraint, or when a caller
// drops it; settling kills every constraint through a gone block,
// which can leave further facts on no live constraint.
type purge struct {
	c *Constraints
	Incidence
	live  []int32 // live constraints through each fact
	gone  []bool  // per block
	dead  []bool  // per constraint
	drops []Ref   // the gone blocks with their witness slots, in drop order
	done  int     // drops[:done] are settled
}

// purge drops every block of the form with a fact on no constraint and
// settles.
func (c *Constraints) purge() *purge {
	p := &purge{c: c, Incidence: c.Incidence(), gone: make([]bool, len(c.Blocks)), dead: make([]bool, len(c.Cons))}
	p.live = make([]int32, len(p.At)-1)
	for f := range p.live {
		p.live[f] = p.At[f+1] - p.At[f]
	}
	for b := range c.Blocks {
		for f := p.Off[b]; f < p.Off[b+1]; f++ {
			if p.live[f] == 0 {
				p.drop(Ref{Block: int32(b), Slot: f - p.Off[b]})
				break
			}
		}
	}
	p.settle()
	return p
}

// drop marks r's block gone, with r's slot as its witness, unless it
// already is.
func (p *purge) drop(r Ref) {
	if !p.gone[r.Block] {
		p.gone[r.Block] = true
		p.drops = append(p.drops, r)
	}
}

// settle works through the drops not yet settled, including the ones
// it adds.
func (p *purge) settle() {
	for ; p.done < len(p.drops); p.done++ {
		b := p.drops[p.done].Block
		for _, ci := range p.On[p.At[p.Off[b]]:p.At[p.Off[b+1]]] {
			if p.dead[ci] {
				continue
			}
			p.dead[ci] = true
			for _, r := range p.c.Cons[ci] {
				f := p.Off[r.Block] + r.Slot
				if p.live[f]--; p.live[f] == 0 {
					p.drop(r)
				}
			}
		}
	}
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
// and the witness of every dropped block in drop order. A witness was
// in no live constraint when its block went, so a falsifying choice
// over the surviving blocks stays falsifying with the witnesses added.
func (c *Constraints) Purified() (*Constraints, []db.Fact) {
	p := c.purge()
	n := len(c.Blocks) - len(p.drops) // every surviving block lies on a live constraint
	pc := &Constraints{Blocks: make([]db.Block, 0, n), rels: c.rels, num: make([][]int32, len(c.num)), at: make([]blockAddress, 0, n)}
	for i, num := range c.num {
		pc.num[i] = make([]int32, len(num))
	}
	refs := make([]Ref, len(p.On)) // backs the live constraints
	for ci, con := range c.Cons {
		if p.dead[ci] {
			continue
		}
		nc := refs[:len(con):len(con)]
		refs = refs[len(con):]
		for i, r := range con {
			a := c.at[r.Block]
			b := pc.num[a.rel][a.pos]
			if b == 0 {
				pc.at = append(pc.at, a)
				pc.Blocks = append(pc.Blocks, c.Blocks[r.Block])
				b = int32(len(pc.at))
				pc.num[a.rel][a.pos] = b
			}
			nc[i] = Ref{Block: b - 1, Slot: r.Slot}
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
