// Package match evaluates conjunctive queries over uncertain databases:
// it enumerates valuations theta with theta(q) ⊆ db via a compiled
// backtracking join, builds the repair-constraint form of a query over
// a database, and implements purification (Lemma 1 of Koutris & Wijsen,
// PODS 2015) on that form and gpurification (Definition 7 / Lemma 17).
package match

import (
	"slices"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/query"
)

// Index is the join's view of a database: the relations' blocks, probed
// by (relation, key value) when an atom's key is bound, looked up in a
// table one walk builds when other positions are, and scanned
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

// hit is the fact one atom matched: its block's position in its
// relation's blocks (db.Rel.Blocks) and its slot in the block's Facts.
// Within a database version, (relation, pos) identifies the block; the
// walk's resolved relations hold it.
type hit struct{ pos, slot int32 }

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

// Match enumerates every valuation theta over vars(q) extending partial
// with theta(q) ⊆ db, calling yield for each. Enumeration stops when yield
// returns false; Match returns false in that case. The valuation passed to
// yield is reused across calls: clone it to retain it.
func (ix *Index) Match(q query.Query, partial query.Valuation, yield func(query.Valuation) bool) bool {
	return ix.MatchChecked(q, partial, nil, yield)
}

// MatchChecked is Match under a cancellation/budget checker, polled once
// per candidate fact of the join (and once per fact a lookup table
// indexes) — not just per yielded match, which would leave a join that
// explores many failing branches (or finds no match at all) running
// unpolled for its entire duration. On a tripped checker the
// enumeration unwinds and MatchChecked returns false; callers
// distinguish abort from exhaustion via chk.Err(). A nil checker
// enforces nothing.
func (ix *Index) MatchChecked(q query.Query, partial query.Valuation, chk *evalctx.Checker, yield func(query.Valuation) bool) bool {
	p := compilePartial(q, partial)
	slots := make([]query.Const, len(p.vars))
	for i, v := range p.vars {
		slots[i] = partial[v] // the zero Const for the variables the join binds
	}
	val := partial.Clone()
	return walk(p, p.resolve(ix.DB), slots, chk, func([]hit) bool {
		for i, v := range p.vars {
			val[v] = slots[i]
		}
		return yield(val)
	})
}

// compilePartial compiles q with the variables of q that partial binds
// bound on entry.
func compilePartial(q query.Query, partial query.Valuation) *joinPlan {
	var bound []query.Var
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() && !slices.Contains(bound, t.Var()) {
				if _, ok := partial[t.Var()]; ok {
					bound = append(bound, t.Var())
				}
			}
		}
	}
	return compile(q, bound)
}

// Exists reports whether some valuation extending partial embeds q in db.
func (ix *Index) Exists(q query.Query, partial query.Valuation) bool {
	found, _ := ix.ExistsChecked(q, partial, nil)
	return found
}

// ExistsChecked is Exists under a checker polled by the join; a tripped
// checker returns its error.
func (ix *Index) ExistsChecked(q query.Query, partial query.Valuation, chk *evalctx.Checker) (bool, error) {
	stopped := !ix.MatchChecked(q, partial, chk, func(query.Valuation) bool { return false })
	if err := chk.Err(); err != nil {
		return false, err
	}
	return stopped, nil
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
// embedding, so their blocks go too. The checker is polled by the join
// and by the fixpoint; a nil checker enforces nothing. Purify is
// PurifyForm's survivors: when every block survives, it returns d
// itself.
func Purify(q query.Query, d *db.DB, chk *evalctx.Checker) (*db.DB, error) {
	pc, err := PurifyForm(q, d, chk)
	if err != nil {
		return nil, err
	}
	return pc.Survivors(), nil
}

// PurifyForm is Purify without the copy: it joins q over d once and
// returns the repair-constraint form of the purified database (see
// Purified). The form's GPurified continues from it without a second
// join, and its Survivors is the database Purify returns.
func PurifyForm(q query.Query, d *db.DB, chk *evalctx.Checker) (*Constraints, error) {
	cs, err := NewIndex(d).Constraints(q, chk)
	if err != nil {
		return nil, err
	}
	pc, _, err := cs.Purified(chk)
	return pc, err
}
