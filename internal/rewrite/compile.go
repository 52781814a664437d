package rewrite

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cqa/internal/attack"
	"cqa/internal/query"
)

// Eliminator is the compiled form of the Lemma 10 recursion for a query
// whose attack graph is acyclic once its parameters (if any) are
// treated as constants: the atom-elimination order, fixed once per
// query pattern. The order is valid for every instantiation of the
// query because instantiating variables with constants never adds
// attacks (Lemma 6) — an atom unattacked at its step of the pattern
// recursion stays unattacked in every residue the data produces. With
// the order fixed, evaluation is pure data work: walk the atoms with a
// valuation, probe blocks by ground key where the key is instantiated,
// and never build an attack graph or allocate a substituted residue
// query.
//
// The elimination order is immutable after CompileAcyclic. An
// Eliminator also owns what evaluation caches for it: the last program
// compiled against a columnar view (reused while it stays valid, see
// prog) and warm evaluation state. Safe for concurrent use; each evaluation carries
// its own valuation and memos.
type Eliminator struct {
	query query.Query
	// params are the variables bound before the first atom (see
	// CompileAcyclic).
	params []query.Var
	// order is the elimination order: order[0] is eliminated first.
	order []query.Atom

	// Slot numbering for the interned (columnar) walk: every variable
	// of the query gets a dense slot in order of first occurrence down
	// the elimination order, so a valuation is a flat []sym.ID instead
	// of a map.
	vars    []query.Var
	varSlot map[query.Var]int32
	// relevantSlots[level] holds the slots of the variables occurring
	// in order[level:], sorted by variable — the only bindings that can
	// influence the sub-recursion at that level, and therefore the
	// memoization key.
	relevantSlots [][]int32
	// extraSlots[level] holds the relevant slots that are not slots of
	// order[level]'s key. A visit whose key is ground and binds none of
	// them leaves a residue that depends on the block alone.
	extraSlots [][]int32

	// ievalCache holds one warm interned evaluation state for reuse.
	// It is a strong reference (unlike the overflow pool below), so
	// the steady-state zero-allocation property survives the GC cycles
	// the benchmark driver forces between runs; concurrent evaluations
	// that miss the slot fall back to the pool.
	ievalCache atomic.Pointer[ieval]
	ievalPool  sync.Pool

	// last is the last program compiled against a columnar view.
	last atomic.Pointer[iprog]
}

// CompileAcyclic chooses the elimination order of q with the given
// parameters bound, and is the only code that chooses elimination
// atoms: the rewriting (Rewriting) is rendered along the order it
// fixes, and the FO engine walks it. At each step the parameters and
// the variables of earlier atoms are treated as constants, which is
// exactly the shape of the residue queries the Lemma 10 recursion
// produces, and the first unattacked atom is chosen. With no parameters
// the order decides the Boolean query; with parameters (the free
// variables of a non-Boolean query) it decides every instantiation of
// them, whose class does not depend on the values chosen, and each
// evaluation must bind them. The attack graph of q with its parameters
// bound is assumed acyclic and not re-checked, but a residue with no
// unattacked atom is an error.
func CompileAcyclic(q query.Query, params ...query.Var) (*Eliminator, error) {
	e := &Eliminator{query: q, params: params, order: make([]query.Atom, 0, q.Len())}
	bound := query.NewVarSet(params...)
	residual := q
	for !residual.Empty() {
		g, err := attack.BuildGraph(residual.Substitute(query.Placeholders(bound)))
		if err != nil {
			return nil, err
		}
		unattacked := g.Unattacked()
		if len(unattacked) == 0 {
			return nil, fmt.Errorf("rewrite: no unattacked atom in residue %s of %s", residual, q)
		}
		f := residual.Atoms[unattacked[0]]
		e.order = append(e.order, f)
		for _, t := range f.Args {
			if t.IsVar() {
				bound.Add(t.Var())
			}
		}
		residual = residual.Remove(f)
	}
	e.varSlot = make(map[query.Var]int32)
	for _, a := range e.order {
		for _, t := range a.Args {
			if t.IsVar() {
				if _, ok := e.varSlot[t.Var()]; !ok {
					e.varSlot[t.Var()] = int32(len(e.vars))
					e.vars = append(e.vars, t.Var())
				}
			}
		}
	}
	e.relevantSlots = make([][]int32, len(e.order))
	e.extraSlots = make([][]int32, len(e.order))
	for level, f := range e.order {
		seen := make(query.VarSet)
		for _, a := range e.order[level:] {
			for _, t := range a.Args {
				if t.IsVar() {
					seen.Add(t.Var())
				}
			}
		}
		vs := seen.Sorted()
		slots := make([]int32, len(vs))
		for i, v := range vs {
			slots[i] = e.varSlot[v]
		}
		e.relevantSlots[level] = slots
		keyVars := f.KeyVars()
		for _, v := range vs {
			if !keyVars.Has(v) {
				e.extraSlots[level] = append(e.extraSlots[level], e.varSlot[v])
			}
		}
	}
	return e, nil
}

// Order returns the compiled elimination order (shared; do not modify).
func (e *Eliminator) Order() []query.Atom { return e.order }

// SweepableFree reports whether the certain-answers block sweep applies
// to the given free variables: every free variable occurs among the key
// arguments of the first elimination atom, and every key argument of
// that atom is a constant or a free variable. Under this condition each
// candidate binding grounds the atom's whole key, so the one block that
// can witness the binding is the block the binding was read from — the
// sweep enumerates candidates and decides them in a single pass over
// the relation's blocks, with no join enumeration and no per-candidate
// block probe. Distinct blocks yield distinct bindings, so the sweep
// needs no dedup and partitions exactly like the blocks themselves.
func (e *Eliminator) SweepableFree(free []query.Var) bool {
	if len(e.order) == 0 {
		return false
	}
	keyVars := make(query.VarSet)
	for _, t := range e.order[0].KeyArgs() {
		if t.IsVar() {
			keyVars.Add(t.Var())
		}
	}
	freeSet := query.NewVarSet(free...)
	for _, v := range free {
		if !keyVars.Has(v) {
			return false
		}
	}
	for v := range keyVars {
		if !freeSet.Has(v) {
			return false
		}
	}
	return true
}
