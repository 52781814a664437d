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

// Index wraps a database with the lookup structures the join needs:
// facts by relation and blocks by (relation, key value). Since the
// database memoizes those structures itself, an Index is now a zero-cost
// view — NewIndex does no per-relation copying — and one database shared
// by many goroutines needs no per-caller index construction.
type Index struct {
	DB *db.DB
}

// NewIndex builds an index over the database. It is O(1): the lookup
// structures live in the database and are built once on first use.
func NewIndex(d *db.DB) *Index {
	return &Index{DB: d}
}

// candidates returns the facts that could match the atom under the current
// valuation: the block (one hash probe) when the key is fully bound,
// otherwise all facts of the relation. The key buffer lives on the
// stack for ordinary key widths — the probe itself does not retain it —
// so the join's per-atom probes stay allocation-free.
func (ix *Index) candidates(a query.Atom, val query.Valuation) []db.Fact {
	keyBound := true
	var buf [8]query.Const
	var keyArgs []query.Const
	if a.Rel.KeyLen <= len(buf) {
		keyArgs = buf[:a.Rel.KeyLen]
	} else {
		keyArgs = make([]query.Const, a.Rel.KeyLen)
	}
	for i, t := range a.KeyArgs() {
		c, ok := val.Apply(t)
		if !ok {
			keyBound = false
			break
		}
		keyArgs[i] = c
	}
	if keyBound {
		b, _ := ix.DB.BlockByKey(a.Rel.Name, keyArgs)
		return b.Facts
	}
	return ix.DB.FactsOf(a.Rel.Name)
}

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
	val := partial.Clone()
	used := make([]bool, q.Len())
	return ix.matchRec(q, used, val, chk, yield)
}

func (ix *Index) matchRec(q query.Query, used []bool, val query.Valuation, chk *evalctx.Checker, yield func(query.Valuation) bool) bool {
	// Find the next atom: prefer fully-bound keys (block lookup), then the
	// atom with the most bound positions.
	next := -1
	bestBound := -1
	bestKey := false
	remaining := 0
	for i, a := range q.Atoms {
		if used[i] {
			continue
		}
		remaining++
		b, kb := boundCount(a, val)
		if kb && !bestKey {
			next, bestBound, bestKey = i, b, true
		} else if kb == bestKey && b > bestBound {
			next, bestBound = i, b
		}
	}
	if remaining == 0 {
		return yield(val)
	}
	a := q.Atoms[next]
	used[next] = true
	defer func() { used[next] = false }()
	for _, f := range ix.candidates(a, val) {
		if chk.Step() != nil {
			return false
		}
		added, ok := unify(a, f, val)
		if !ok {
			continue
		}
		cont := ix.matchRec(q, used, val, chk, yield)
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

// AllMatchesChecked is AllMatches under a cancellation/budget checker,
// polled once per enumerated match. A nil checker enforces nothing.
func AllMatchesChecked(q query.Query, d *db.DB, chk *evalctx.Checker) ([]query.Valuation, error) {
	sp := chk.Tracer().Begin(trace.StageMatch)
	var out []query.Valuation
	NewIndex(d).MatchChecked(q, query.Valuation{}, chk, func(v query.Valuation) bool {
		out = append(out, v.Clone())
		return true
	})
	sp.End()
	chk.Tracer().Add(trace.StageMatch, trace.CtrMatches, int64(len(out)))
	if err := chk.Err(); err != nil {
		return nil, err
	}
	return out, nil
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
	var removals []Removal
	cur := d.Filter(func(f db.Fact) bool {
		if q.HasRel(f.Rel.Name) {
			return true
		}
		return false
	})
	// Blocks of relations outside q never join with anything; record them
	// first with an arbitrary witness.
	seen := make(map[string]bool)
	for _, f := range d.Facts() {
		if !q.HasRel(f.Rel.Name) && !seen[f.BlockID()] {
			seen[f.BlockID()] = true
			removals = append(removals, Removal{BlockID: f.BlockID(), Witness: f})
		}
	}
	for {
		tr.Add(trace.StagePurify, trace.CtrRounds, 1)
		if err := chk.Check(); err != nil {
			return nil, nil, err
		}
		// One embedding enumeration marks every relevant fact; anything
		// unmarked is irrelevant and dooms its whole block.
		ix := NewIndex(cur)
		relevant := make(map[string]bool, cur.Len())
		ix.MatchChecked(q, query.Valuation{}, chk, func(v query.Valuation) bool {
			for _, a := range q.Atoms {
				if f, err := db.FactFromAtom(a, v); err == nil {
					relevant[f.ID()] = true
				}
			}
			return true
		})
		dropBlocks := make(map[string]bool)
		for _, f := range cur.Facts() {
			if chk.Step() != nil {
				break
			}
			if dropBlocks[f.BlockID()] {
				continue
			}
			if !relevant[f.ID()] {
				dropBlocks[f.BlockID()] = true
				removals = append(removals, Removal{BlockID: f.BlockID(), Witness: f})
			}
		}
		if err := chk.Err(); err != nil {
			return nil, nil, err
		}
		if len(dropBlocks) == 0 {
			tr.Add(trace.StagePurify, trace.CtrFacts, int64(len(removals)))
			return cur, removals, nil
		}
		cur = cur.Filter(func(f db.Fact) bool { return !dropBlocks[f.BlockID()] })
	}
}
