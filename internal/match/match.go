// Package match evaluates conjunctive queries over uncertain databases:
// it enumerates valuations theta with theta(q) ⊆ db via a backtracking
// join, builds the repair-constraint form of a query over a database,
// and implements purification (Lemma 1 of Koutris & Wijsen, PODS 2015)
// on that form and gpurification (Definition 7 / Lemma 17).
package match

import (
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/query"
)

// Index is the join's view of a database: the relations' blocks, probed
// by (relation, key value) when an atom's key is bound and scanned
// otherwise. It holds no copy of its own — NewIndex does no
// per-relation work — so one database shared by many goroutines needs
// no per-caller index construction.
type Index struct {
	DB *db.DB
}

// NewIndex builds an index over the database. It is O(1): the blocks
// and their key tables live in the database.
func NewIndex(d *db.DB) *Index {
	return &Index{DB: d}
}

// hit is the fact one atom matched: its block and its slot in the
// block's Facts. The zero hit (nil Facts) marks an atom the join has not
// matched yet.
type hit struct {
	blk  db.Block
	slot int32
}

// fact returns the matched fact in place, so its address identifies it
// within the database version.
func (h hit) fact() *db.Fact { return &h.blk.Facts[h.slot] }

// sameBlock reports whether two hits lie in one block.
func (h hit) sameBlock(g hit) bool { return &h.blk.Facts[0] == &g.blk.Facts[0] }

// unify attempts to extend val so that the atom maps onto the fact.
// It returns the list of variables newly bound (for undo) and whether the
// unification succeeded; on failure val is left unchanged.
func unify(a query.Atom, f db.Fact, val query.Valuation) ([]query.Var, bool) {
	var added []query.Var
	undo := func() {
		for _, v := range added {
			delete(val, v)
		}
	}
	for i, t := range a.Args {
		c := f.Args[i]
		if t.IsConst() {
			if t.Const() != c {
				undo()
				return nil, false
			}
			continue
		}
		v := t.Var()
		if bound, ok := val[v]; ok {
			if bound != c {
				undo()
				return nil, false
			}
			continue
		}
		val[v] = c
		added = append(added, v)
	}
	return added, true
}

// UnifyTerms extends val so that the terms map onto the constants,
// reporting failure on constant mismatches or inconsistent repeated
// variables. Bindings made before a failure are kept; clone val first when
// that matters.
func UnifyTerms(terms []query.Term, consts []query.Const, val query.Valuation) bool {
	for i, t := range terms {
		c := consts[i]
		if t.IsConst() {
			if t.Const() != c {
				return false
			}
			continue
		}
		v := t.Var()
		if bound, ok := val[v]; ok {
			if bound != c {
				return false
			}
			continue
		}
		val[v] = c
	}
	return true
}

// boundCount counts how many of the atom's variables are bound by val;
// constants count as bound positions.
func boundCount(a query.Atom, val query.Valuation) (bound int, keyFullyBound bool) {
	keyFullyBound = true
	for i, t := range a.Args {
		if t.IsConst() {
			bound++
			continue
		}
		if _, ok := val[t.Var()]; ok {
			bound++
		} else if i < a.Rel.KeyLen {
			keyFullyBound = false
		}
	}
	return bound, keyFullyBound
}

// Match enumerates every valuation theta over vars(q) extending partial
// with theta(q) ⊆ db, calling yield for each. Enumeration stops when yield
// returns false; Match returns false in that case. The valuation passed to
// yield is reused across calls: clone it to retain it.
func (ix *Index) Match(q query.Query, partial query.Valuation, yield func(query.Valuation) bool) bool {
	return ix.MatchChecked(q, partial, nil, yield)
}

// MatchChecked is Match under a cancellation/budget checker, polled once
// per candidate fact of the backtracking join — not just per yielded
// match, which would leave a join that explores many failing branches
// (or finds no match at all) running unpolled for its entire duration.
// On a tripped checker the enumeration unwinds and MatchChecked returns
// false; callers distinguish abort from exhaustion via chk.Err(). A nil
// checker enforces nothing.
func (ix *Index) MatchChecked(q query.Query, partial query.Valuation, chk *evalctx.Checker, yield func(query.Valuation) bool) bool {
	return ix.walk(q, partial, chk, func(v query.Valuation, _ []hit) bool { return yield(v) })
}

// walk is the backtracking join. Besides the valuation it hands yield
// the hit of every atom, in atom order (reused across calls), so readers
// that need the matched facts take them from the blocks the join
// visited instead of grounding the atoms again.
func (ix *Index) walk(q query.Query, partial query.Valuation, chk *evalctx.Checker, yield func(query.Valuation, []hit) bool) bool {
	val := partial.Clone()
	hits := make([]hit, q.Len())
	return ix.walkRec(q, hits, val, chk, yield)
}

func (ix *Index) walkRec(q query.Query, hits []hit, val query.Valuation, chk *evalctx.Checker, yield func(query.Valuation, []hit) bool) bool {
	// Find the next atom: prefer fully-bound keys (block lookup), then the
	// atom with the most bound positions.
	next := -1
	bestBound := -1
	bestKey := false
	for i, a := range q.Atoms {
		if hits[i].blk.Facts != nil {
			continue
		}
		b, kb := boundCount(a, val)
		if kb && !bestKey {
			next, bestBound, bestKey = i, b, true
		} else if kb == bestKey && b > bestBound {
			next, bestBound = i, b
		}
	}
	if next < 0 {
		return yield(val, hits)
	}
	a := q.Atoms[next]
	defer func() { hits[next] = hit{} }()
	if bestKey {
		blk, ok := ix.probe(a, val)
		return !ok || ix.scan(q, next, blk, hits, val, chk, yield)
	}
	for _, blk := range ix.DB.BlocksOf(a.Rel.Name) {
		if !ix.scan(q, next, blk, hits, val, chk, yield) {
			return false
		}
	}
	return true
}

// probe returns the one block that can match an atom whose key val
// binds fully. The key buffer lives on the stack for ordinary key
// widths — the probe itself does not retain it — so the join's per-atom
// probes stay allocation-free.
func (ix *Index) probe(a query.Atom, val query.Valuation) (db.Block, bool) {
	var buf [8]query.Const
	var key []query.Const
	if a.Rel.KeyLen <= len(buf) {
		key = buf[:a.Rel.KeyLen]
	} else {
		key = make([]query.Const, a.Rel.KeyLen)
	}
	for i, t := range a.KeyArgs() {
		key[i], _ = val.Apply(t)
	}
	return ix.DB.BlockByKey(a.Rel.Name, key)
}

// scan unifies atom i with each fact of blk in slot order and recurses
// on every success.
func (ix *Index) scan(q query.Query, i int, blk db.Block, hits []hit, val query.Valuation, chk *evalctx.Checker, yield func(query.Valuation, []hit) bool) bool {
	a := q.Atoms[i]
	for s, f := range blk.Facts {
		if chk.Step() != nil {
			return false
		}
		added, ok := unify(a, f, val)
		if !ok {
			continue
		}
		hits[i] = hit{blk: blk, slot: int32(s)}
		cont := ix.walkRec(q, hits, val, chk, yield)
		for _, v := range added {
			delete(val, v)
		}
		if !cont {
			return false
		}
	}
	return true
}

// Exists reports whether some valuation extending partial embeds q in db.
func (ix *Index) Exists(q query.Query, partial query.Valuation) bool {
	found := false
	ix.Match(q, partial, func(query.Valuation) bool {
		found = true
		return false
	})
	return found
}

// All returns every match of q in db (cloned valuations, deterministic
// order of discovery).
func (ix *Index) All(q query.Query) []query.Valuation {
	var out []query.Valuation
	ix.Match(q, query.Valuation{}, func(v query.Valuation) bool {
		out = append(out, v.Clone())
		return true
	})
	return out
}

// Satisfies reports whether db |= q.
func Satisfies(q query.Query, d *db.DB) bool {
	return NewIndex(d).Exists(q, query.Valuation{})
}

// AllMatches returns every match of q in d.
func AllMatches(q query.Query, d *db.DB) []query.Valuation {
	return NewIndex(d).All(q)
}

// Purify implements Lemma 1: it computes a database that is purified
// relative to the self-join-free query q (every fact is relevant) and
// has the same certain answer.
//
// The key subtlety: an irrelevant fact cannot simply be dropped, because a
// repair may choose it and thereby contribute nothing towards satisfying
// q. Instead, a block containing an irrelevant fact is removed entirely —
// if some repair of the remainder falsifies q, extending it with the
// irrelevant fact yields a falsifying repair of the original database, and
// conversely every repair of the original extends a repair of the
// remainder. Removals can make further facts irrelevant, so removal runs
// to a fixpoint, over the repair-constraint form (see Purified): the
// join runs once. Facts of relations not occurring in q lie on no
// embedding, so their blocks go too. The checker is polled by the join;
// a nil checker enforces nothing. When every block survives, Purify
// returns d itself.
func Purify(q query.Query, d *db.DB, chk *evalctx.Checker) (*db.DB, error) {
	cs, err := NewIndex(d).Constraints(q, chk)
	if err != nil {
		return nil, err
	}
	if pc, _ := cs.Purified(); len(pc.Blocks) < d.NumBlocks() {
		return subDB(d, pc.Constrained), nil
	}
	return d, nil
}

// subDB returns a database holding the blocks of d that keep selects,
// in d's block order.
func subDB(d *db.DB, keep func(db.Block) bool) *db.DB {
	out := db.New()
	for _, b := range d.Blocks() {
		if keep(b) {
			for _, f := range b.Facts {
				out.Add(f)
			}
		}
	}
	return out
}
