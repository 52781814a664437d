// Package rewrite implements the first-order case of the trichotomy
// (Section 5 of Koutris & Wijsen, PODS 2015): when the attack graph of q
// is acyclic, CERTAINTY(q) is decided by the recursion of Lemmas 9/10 —
// repeatedly pick an unattacked atom, guess its block, and demand that
// every fact of the block extends to a certain residue query.
// CompileAcyclic chooses the atoms once per query, as an elimination
// order, and is the only code that does: the compiled Eliminator walks
// that order over the columnar view (the production engine, a
// zero-allocation walk), and the symbolic first-order rewriting
// (Example 5 style, with its own model-checking evaluator) is rendered
// along it. The order may take parameters, the free variables of a
// non-Boolean query, which it treats as bound. The row-oriented
// recursion of Certain builds its own attack graphs and is kept as the
// reference the Eliminator is tested against.
package rewrite

import (
	"fmt"

	"cqa/internal/attack"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/query"
)

// Certain decides CERTAINTY(q) for queries whose attack graph is acyclic.
// It returns an error when the attack graph has a cycle (use the ptime or
// conp engines there). It runs the row-oriented reference recursion of
// CertainAcyclic: the production engine is the compiled Eliminator, and
// Certain is the independent Lemma 10 oracle the differential tests
// hold it to.
func Certain(q query.Query, d *db.DB) (bool, error) {
	g, err := attack.BuildGraph(q)
	if err != nil {
		return false, err
	}
	if g.HasCycle() {
		return false, fmt.Errorf("rewrite: attack graph of %s is cyclic; CERTAINTY is not in FO", q)
	}
	return CertainAcyclic(q, d), nil
}

// CertainAcyclic runs the Lemma 10 recursion directly on the row view
// for a query whose attack graph is already known to be acyclic: build
// the attack graph of the residue, pick an unattacked atom, and demand
// that some block of its relation passes the Lemma 9 test, recursing on
// substituted residue queries memoized by their canonical text. It
// shares no code with the compiled Eliminator walk — no elimination
// order, no columnar view, no interned valuation — which is what makes
// it a reference for that walk. The result is meaningless on cyclic
// queries.
func CertainAcyclic(q query.Query, d *db.DB) bool {
	e := &evaluator{d: d, memo: make(map[string]bool)}
	return e.certain(q)
}

type evaluator struct {
	d    *db.DB
	memo map[string]bool
}

// certain implements the recursion from the proof of Lemma 10. The query
// shrinks by one atom per level and is progressively instantiated, so
// Lemma 6 keeps the attack graph acyclic throughout.
func (e *evaluator) certain(q query.Query) bool {
	if q.Empty() {
		return true
	}
	key := q.Canonical()
	if v, ok := e.memo[key]; ok {
		return v
	}
	res := e.certainUncached(q)
	e.memo[key] = res
	return res
}

func (e *evaluator) certainUncached(q query.Query) bool {
	g, err := attack.BuildGraph(q)
	if err != nil {
		return false
	}
	unattacked := g.Unattacked()
	if len(unattacked) == 0 {
		// Cannot happen for acyclic attack graphs.
		return false
	}
	f := q.Atoms[unattacked[0]]
	rest := q.Remove(f)

	// Lemma 9: q is certain iff some R-block b exists such that the key
	// pattern of F matches b's key and, for every fact of b, the non-key
	// pattern matches and the instantiated residue query is certain.
	// A fully instantiated key names at most one candidate block.
	blocks := e.d.BlocksOf(f.Rel.Name)
	if key, ok := groundKey(f); ok {
		b, found := e.d.BlockByKey(f.Rel.Name, key)
		if !found {
			return false
		}
		blocks = []db.Block{b}
	}
	for _, b := range blocks {
		if len(b.Facts) == 0 {
			continue
		}
		theta := query.Valuation{}
		if !match.UnifyTerms(f.KeyArgs(), b.Facts[0].Key(), theta) {
			continue
		}
		allGood := true
		for _, fact := range b.Facts {
			thetaPlus := theta.Clone()
			if !match.UnifyTerms(f.NonKeyArgs(), fact.NonKey(), thetaPlus) {
				allGood = false
				break
			}
			if !e.certain(rest.Substitute(thetaPlus)) {
				allGood = false
				break
			}
		}
		if allGood {
			return true
		}
	}
	return false
}

// groundKey returns the key value of an atom whose key positions are
// all constants.
func groundKey(a query.Atom) ([]query.Const, bool) {
	key := make([]query.Const, a.Rel.KeyLen)
	for i, t := range a.KeyArgs() {
		if !t.IsConst() {
			return nil, false
		}
		key[i] = t.Const()
	}
	return key, true
}
