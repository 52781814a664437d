package match

import (
	"slices"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// GPurify implements Lemma 17: it repeatedly purifies d and removes every
// gblock that has a non-grelevant repair (justified by Lemma 16: the
// non-grelevant repair witnesses that the gblock's blocks can be dropped
// without changing the certain answer). The result is gpurified relative
// to q: every repair of every gblock is grelevant.
//
// Both steps run on the repair-constraint form, built by one join. The
// purification fixpoint's live constraints are exactly the embeddings of
// the database purified so far, and every embedding of a self-join-free
// query is consistent, so a gblock repair is grelevant (Definition 6)
// iff some live constraint passes through one of its facts and keeps
// the repair's fact on every block of the gblock it touches. Each round
// decides every gblock on the same form, drops the blocks of the
// gblocks with a non-grelevant repair, and settles the fixpoint again,
// until a round drops nothing. GPurify copies no data: it returns the
// gpurified form, compacted as Purified compacts.
//
// The caller must ensure all mode-i atoms of q and all mode-i facts of d
// are simple-key. d need not be typed relative to q: gblocks are keyed
// by the atom's key term as well as the key constant, which is what
// typing would make the constant carry. The checker
// is polled by the join and once per gblock repair, whose number is
// exponential in the gblock's size; a tripped checker returns its error
// and no form. A nil checker enforces nothing.
func GPurify(q query.Query, d *db.DB, chk *evalctx.Checker) (*Constraints, error) {
	cs, err := NewIndex(d).Constraints(q, chk)
	if err != nil {
		return nil, err
	}
	p := cs.purge()
	gblocks := cs.gblocks(q)
	pick := make([]int32, len(cs.Blocks)) // the repair's slot in each block of the gblock at hand, else -1
	for b := range pick {
		pick[b] = -1
	}
	for {
		var doomed []int32
		for i, g := range gblocks {
			g = slices.DeleteFunc(g, func(b int32) bool { return p.gone[b] })
			if gblocks[i] = g; len(g) == 0 {
				continue
			}
			ok, err := p.allGRelevant(g, pick, chk)
			if err != nil {
				return nil, err
			}
			if !ok {
				doomed = append(doomed, g...)
			}
		}
		if len(doomed) == 0 {
			break
		}
		for _, b := range doomed {
			p.drop(Ref{Block: b})
		}
		p.settle()
	}
	return p.form(), nil
}

// gblocks groups the form's blocks into generalized blocks (Definition
// 7): the blocks of simple-key mode-i relations, by the pair (key term
// of the relation's atom in q, key constant), in first-touch order. On a
// database typed relative to q the key constant alone would decide, as
// each variable owns its pool; the pair decides the same on any
// database. Gblocks are defined in the regime where every mode-i atom
// is simple-key; blocks of composite-key mode-i relations are in no
// gblock.
func (c *Constraints) gblocks(q query.Query) [][]int32 {
	type gkey struct {
		term query.Term
		key  query.Const
	}
	terms := make([]query.Term, len(c.rels)) // the first term of each relation's atom
	for i, name := range c.rels {
		if a, _ := q.AtomWithRel(name); len(a.Args) > 0 {
			terms[i] = a.Args[0]
		}
	}
	byKey := make(map[gkey]int)
	var out [][]int32
	for b, blk := range c.Blocks {
		f := blk.Facts[0]
		if f.Rel.Mode == schema.ModeC || !f.Rel.SimpleKey() {
			continue
		}
		k := gkey{terms[c.at[b].rel], f.Args[0]}
		i, ok := byKey[k]
		if !ok {
			i = len(out)
			byKey[k] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], int32(b))
	}
	return out
}

// allGRelevant reports whether every repair of gblock g — one slot per
// block, enumerated like an odometer in pick — is grelevant. pick is -1
// outside g on entry and on return. The checker is polled once per
// repair.
func (p *purge) allGRelevant(g, pick []int32, chk *evalctx.Checker) (bool, error) {
	for _, b := range g {
		pick[b] = 0
	}
	defer func() {
		for _, b := range g {
			pick[b] = -1
		}
	}()
	for {
		if err := chk.Step(); err != nil {
			return false, err
		}
		if !p.gRelevant(g, pick) {
			return false, nil
		}
		i := 0
		for ; i < len(g); i++ {
			b := g[i]
			if pick[b]++; pick[b] < p.Off[b+1]-p.Off[b] {
				break
			}
			pick[b] = 0
		}
		if i == len(g) {
			return true, nil
		}
	}
}

// gRelevant reports whether the repair pick of gblock g is grelevant:
// some live constraint through a picked fact has the picked slot on
// every block of g it touches.
func (p *purge) gRelevant(g, pick []int32) bool {
	for _, b := range g {
		f := p.Off[b] + pick[b]
	cons:
		for _, ci := range p.On[p.At[f]:p.At[f+1]] {
			if p.dead[ci] {
				continue
			}
			for _, r := range p.c.Cons[ci] {
				if pick[r.Block] >= 0 && pick[r.Block] != r.Slot {
					continue cons
				}
			}
			return true
		}
	}
	return false
}
