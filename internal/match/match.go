// Package match evaluates conjunctive queries over uncertain databases:
// it enumerates valuations theta with theta(q) ⊆ db via a backtracking
// join, decides relevance of facts (Section 3 of Koutris & Wijsen, PODS
// 2015), and implements purification (Lemma 1) and gpurification
// (Definition 7 / Lemma 17).
package match

import (
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/query"
	"cqa/internal/trace"
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

// MatchesWith enumerates the matches theta with fact ∈ theta(q): the fact
// is unified with the (unique, by self-join-freeness) atom of its relation
// first. When q has no atom with the fact's relation there are no such
// matches.
func (ix *Index) MatchesWith(q query.Query, f db.Fact, yield func(query.Valuation) bool) bool {
	atom, ok := q.AtomWithRel(f.Rel.Name)
	if !ok {
		return true
	}
	val := query.Valuation{}
	if _, ok := unify(atom, f, val); !ok {
		return true
	}
	rest := q.Remove(atom)
	return ix.Match(rest, val, yield)
}

// Relevant reports whether the fact is relevant for q in db: some
// valuation theta has fact ∈ theta(q) ⊆ db.
func (ix *Index) Relevant(q query.Query, f db.Fact) bool {
	found := false
	ix.MatchesWith(q, f, func(query.Valuation) bool {
		found = true
		return false
	})
	return found
}

// Satisfies reports whether db |= q.
func Satisfies(q query.Query, d *db.DB) bool {
	return NewIndex(d).Exists(q, query.Valuation{})
}

// AllMatches returns every match of q in d.
func AllMatches(q query.Query, d *db.DB) []query.Valuation {
	return NewIndex(d).All(q)
}

// RelevantFact reports whether f is relevant for q in d.
func RelevantFact(q query.Query, d *db.DB, f db.Fact) bool {
	ix := NewIndex(d)
	found := false
	ix.MatchesWith(q, f, func(query.Valuation) bool {
		found = true
		return false
	})
	return found
}

// Purify implements Lemma 1: it computes a database that is purified
// relative to q (every fact is relevant) and has the same certain answer.
//
// The key subtlety: an irrelevant fact cannot simply be dropped, because a
// repair may choose it and thereby contribute nothing towards satisfying
// q. Instead, a block containing an irrelevant fact is removed entirely —
// if some repair of the remainder falsifies q, extending it with the
// irrelevant fact yields a falsifying repair of the original database, and
// conversely every repair of the original extends a repair of the
// remainder. Removals can make further facts irrelevant, so the procedure
// iterates to a fixpoint; each round deletes at least one block, so it
// terminates after polynomially many rounds.
//
// Facts of relations not occurring in q are never relevant and are
// removed up front (their blocks never interact with q).
func Purify(q query.Query, d *db.DB) *db.DB {
	pd, _, _ := PurifyTraceChecked(q, d, nil)
	return pd
}

// Removal records one purification step: the block identified by BlockID
// was removed because Witness was irrelevant at the time of removal.
type Removal struct {
	BlockID string
	Witness db.Fact
}

// PurifyTraceChecked is Purify but additionally returns the removals in
// chronological order. The trace lets callers turn a falsifying repair
// of the purified database into a falsifying repair of the original
// one: walk the removals in reverse order, adding each witness fact (it
// was irrelevant when removed, so it cannot complete an embedding
// against the facts that remained). Purification is polynomial but not
// cheap — each fixpoint round re-enumerates every embedding — so on
// large instances it can dominate the latency of a cut-short
// evaluation; the rounds poll the checker per embedding and per scanned
// fact. A nil checker enforces nothing.
func PurifyTraceChecked(q query.Query, d *db.DB, chk *evalctx.Checker) (*db.DB, []Removal, error) {
	tr := chk.Tracer()
	sp := tr.Begin(trace.StagePurify)
	defer sp.End()
	// Blocks of relations outside q never join with anything; record them
	// first with an arbitrary witness.
	var removals []Removal
	var kept []db.Block
	for _, b := range d.Blocks() {
		if q.HasRel(b.Facts[0].Rel.Name) {
			kept = append(kept, b)
		} else {
			removals = append(removals, Removal{BlockID: b.ID, Witness: b.Facts[0]})
		}
	}
	cur := fromBlocks(kept)
	for {
		tr.Add(trace.StagePurify, trace.CtrRounds, 1)
		if err := chk.Check(); err != nil {
			return nil, nil, err
		}
		// One embedding enumeration marks every relevant fact, by its
		// place in its block; anything unmarked is irrelevant and dooms
		// its whole block.
		relevant := make(map[*db.Fact]bool, cur.Len())
		NewIndex(cur).walk(q, query.Valuation{}, chk, func(_ query.Valuation, hits []hit) bool {
			for _, h := range hits {
				relevant[h.fact()] = true
			}
			return true
		})
		kept = kept[:0]
		dropped := false
	blocks:
		for _, b := range cur.Blocks() {
			if chk.Step() != nil {
				break
			}
			for s := range b.Facts {
				if !relevant[&b.Facts[s]] {
					removals = append(removals, Removal{BlockID: b.ID, Witness: b.Facts[s]})
					dropped = true
					continue blocks
				}
			}
			kept = append(kept, b)
		}
		if err := chk.Err(); err != nil {
			return nil, nil, err
		}
		if !dropped {
			tr.Add(trace.StagePurify, trace.CtrFacts, int64(len(removals)))
			return cur, removals, nil
		}
		cur = fromBlocks(kept)
	}
}

// fromBlocks returns a database holding the given blocks, in order.
func fromBlocks(blocks []db.Block) *db.DB {
	d := db.New()
	for _, b := range blocks {
		for _, f := range b.Facts {
			d.Add(f)
		}
	}
	return d
}
