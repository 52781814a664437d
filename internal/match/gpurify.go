package match

import (
	"slices"
	"sort"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// GBlock is a generalized block (Definition 7): a maximal set of mode-i
// facts that agree on their primary-key position. All mode-i facts must be
// simple-key for gblocks to be well defined. Facts in a gblock share the
// key constant but may have distinct relation names.
type GBlock struct {
	Key    query.Const
	Blocks []db.Block // one block per relation present, stable order
}

// Size returns the number of facts in the gblock.
func (g GBlock) Size() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Facts)
	}
	return n
}

// NumRepairs returns the number of repairs of the gblock: the product of
// its block sizes.
func (g GBlock) NumRepairs() int {
	n := 1
	for _, b := range g.Blocks {
		n *= len(b.Facts)
	}
	return n
}

// GBlocks groups the simple-key mode-i facts of d by their key constant.
// Gblocks are defined (Definition 7) in the regime where every mode-i atom
// is simple-key; facts of composite-key mode-i relations are skipped, so
// in that regime the result covers all mode-i facts.
func GBlocks(d *db.DB) ([]GBlock, error) {
	byKey := make(map[query.Const][]db.Block)
	var order []query.Const
	for _, name := range d.Relations() {
		for _, b := range d.BlocksOf(name) {
			if len(b.Facts) == 0 {
				continue
			}
			rel := b.Facts[0].Rel
			if rel.Mode == schema.ModeC {
				continue
			}
			if !rel.SimpleKey() {
				continue
			}
			k := b.Facts[0].Args[0]
			if _, ok := byKey[k]; !ok {
				order = append(order, k)
			}
			byKey[k] = append(byKey[k], b)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]GBlock, 0, len(order))
	for _, k := range order {
		out = append(out, GBlock{Key: k, Blocks: byKey[k]})
	}
	return out, nil
}

// GRelevant reports whether the consistent fact set s is grelevant for q
// in d (Definition 6): s extends to a repair r of d in which some fact of
// s is relevant. Equivalently, some match theta of q in d has
// theta(q) ∩ s ≠ ∅ and theta(q) ∪ s consistent. Facts of s absent from
// d make it not grelevant.
func GRelevant(q query.Query, d *db.DB, s []db.Fact) bool {
	choice := make([]hit, len(s))
	for i, f := range s {
		blk := d.BlockOf(f)
		choice[i].slot = -1
		for j, g := range blk.Facts {
			if g.Equal(f) {
				choice[i] = hit{blk: blk, slot: int32(j)}
				break
			}
		}
		if choice[i].slot < 0 {
			return false
		}
	}
	return gRelevant(q, relevances(q), NewIndex(d), choice, nil)
}

// relevance is the join gRelevant runs from one atom of q: seed
// unifies the atom with a fact, binding the atom's variables into the
// first slots, and rest walks the other atoms from there.
type relevance struct {
	seed []op
	rest *joinPlan
}

// relevances compiles the join gRelevant runs from each atom of q. The
// plans depend on q alone, so one compilation serves every round of
// GPurify.
func relevances(q query.Query) []relevance {
	out := make([]relevance, q.Len())
	for i, a := range q.Atoms {
		seed := compile(query.Query{Atoms: q.Atoms[i : i+1]}, nil)
		out[i] = relevance{seed: seed.steps[0].ops, rest: compile(q.Remove(a), seed.vars)}
	}
	return out
}

// gRelevant is GRelevant for a choice of one fact in each of some
// blocks of ix's database. The join's hits place every matched fact, so
// consistency and the clash with the choice are slot comparisons within
// a block. A fact is unified with the first atom of its relation. The
// checker is polled by the join; once it trips gRelevant reports false
// and the caller surfaces chk.Err().
func gRelevant(q query.Query, rels []relevance, ix *Index, choice []hit, chk *evalctx.Checker) bool {
	for _, c := range choice {
		f := c.fact()
		i := slices.IndexFunc(q.Atoms, func(a query.Atom) bool { return a.Rel.Name == f.Rel.Name })
		if i < 0 {
			continue
		}
		r := rels[i]
		slots := make([]query.Const, len(r.rest.vars))
		if !unify(r.seed, f.Args, slots) {
			continue
		}
		found := false
		ix.walk(r.rest, slots, chk, func(hits []hit) bool {
			for i, h := range hits {
				for _, g := range hits[:i] {
					if g.sameBlock(h) && g.slot != h.slot {
						return true // theta(q) is inconsistent
					}
				}
				for _, g := range choice {
					if g.sameBlock(h) && g.slot != h.slot {
						return true // clashes with the choice inside a shared block
					}
				}
			}
			found = true
			return false
		})
		if found {
			return true
		}
	}
	return false
}

// GPurify implements Lemma 17: it repeatedly purifies d and removes every
// gblock that has a non-grelevant repair (justified by Lemma 16: the
// non-grelevant repair witnesses that the gblock's blocks can be dropped
// without changing the certain answer). The result is gpurified relative
// to q: every repair of every gblock is grelevant.
//
// The caller must ensure all mode-i atoms of q and all mode-i facts of d
// are simple-key; d should already be typed relative to q. The checker
// is polled by every join; a tripped checker returns its error and no
// database. A nil checker enforces nothing.
func GPurify(q query.Query, d *db.DB, chk *evalctx.Checker) (*db.DB, error) {
	cur, err := Purify(q, d, chk)
	if err != nil {
		return nil, err
	}
	rels := relevances(q)
	for {
		gblocks, err := GBlocks(cur)
		if err != nil {
			return nil, err
		}
		ix := NewIndex(cur)
		removed := make(map[*db.Fact]bool) // removed blocks, by first fact
		for _, g := range gblocks {
			if !g.allGRelevant(q, rels, ix, chk) {
				for _, b := range g.Blocks {
					removed[&b.Facts[0]] = true
				}
			}
			if err := chk.Err(); err != nil {
				return nil, err
			}
		}
		if len(removed) == 0 {
			return cur, nil
		}
		cur, err = Purify(q, subDB(cur, func(b db.Block) bool { return !removed[&b.Facts[0]] }), chk)
		if err != nil {
			return nil, err
		}
	}
}

// allGRelevant reports whether every repair of the gblock — one slot per
// block, enumerated like an odometer — is grelevant.
func (g GBlock) allGRelevant(q query.Query, rels []relevance, ix *Index, chk *evalctx.Checker) bool {
	choice := make([]hit, len(g.Blocks))
	for i, b := range g.Blocks {
		choice[i] = hit{blk: b}
	}
	for {
		if !gRelevant(q, rels, ix, choice, chk) {
			return false
		}
		i := 0
		for ; i < len(choice); i++ {
			if choice[i].slot++; int(choice[i].slot) < len(choice[i].blk.Facts) {
				break
			}
			choice[i].slot = 0
		}
		if i == len(choice) {
			return true
		}
	}
}
