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
	// MatchChecked yields them. Refs follow the query's atom order; a
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
	type hit struct {
		blk  db.Block
		slot int32
	}
	hits := make([]hit, q.Len())
	kept := make([]db.Block, 0, q.Len()) // the block of each kept ref
	var key []query.Const
	ix.MatchChecked(q, query.Valuation{}, chk, func(v query.Valuation) bool {
		cs.Embeddings++
		// Locate each atom's image: the block by its ground key, the
		// slot by the ground non-key values. The join matched every
		// atom to a fact of this database, so neither lookup can miss.
		for i, a := range q.Atoms {
			key = key[:0]
			for _, t := range a.KeyArgs() {
				c, _ := v.Apply(t)
				key = append(key, c)
			}
			blk, _ := ix.DB.BlockByKey(a.Rel.Name, key)
			hits[i] = hit{blk: blk, slot: slotOf(blk.Facts, a, v)}
		}
		c := make([]Ref, 0, len(hits))
		kept = kept[:0]
	next:
		for i, h := range hits {
			for _, g := range hits[:i] {
				if &g.blk.Facts[0] != &h.blk.Facts[0] {
					continue
				}
				if g.slot != h.slot {
					// Two distinct facts of one block never survive a
					// repair together: the embedding constrains nothing.
					return true
				}
				continue next // a fact an earlier atom already holds
			}
			c = append(c, Ref{Slot: h.slot})
			kept = append(kept, h.blk)
		}
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

// slotOf returns the position in facts of the fact the atom maps to
// under v.
func slotOf(facts []db.Fact, a query.Atom, v query.Valuation) int32 {
	for s, f := range facts {
		same := true
		for j := a.Rel.KeyLen; j < len(a.Args); j++ {
			if c, _ := v.Apply(a.Args[j]); c != f.Args[j] {
				same = false
				break
			}
		}
		if same {
			return int32(s)
		}
	}
	return -1
}
