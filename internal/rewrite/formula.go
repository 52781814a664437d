package rewrite

import (
	"fmt"
	"strings"

	"cqa/internal/attack"
	"cqa/internal/query"
)

// Formula is a first-order formula over the query's schema, with equality
// and constants. It is the symbolic counterpart of the direct evaluator:
// when the attack graph of q is acyclic, Rewriting(q) returns a sentence
// that holds in an uncertain database (as a plain first-order structure)
// iff every repair satisfies q.
type Formula interface {
	format(b *strings.Builder)
}

// TrueF is the true sentence.
type TrueF struct{}

// FalseF is the false sentence.
type FalseF struct{}

// AtomF asserts membership of a tuple in a relation.
type AtomF struct{ Atom query.Atom }

// EqF asserts equality of two terms.
type EqF struct{ L, R query.Term }

// AndF is conjunction; an empty conjunction is true.
type AndF struct{ Fs []Formula }

// ImpliesF is implication.
type ImpliesF struct{ L, R Formula }

// ExistsF existentially quantifies variables.
type ExistsF struct {
	Vars []query.Var
	F    Formula
}

// ForallF universally quantifies variables.
type ForallF struct {
	Vars []query.Var
	F    Formula
}

func (TrueF) format(b *strings.Builder)  { b.WriteString("true") }
func (FalseF) format(b *strings.Builder) { b.WriteString("false") }
func (f AtomF) format(b *strings.Builder) {
	b.WriteString(f.Atom.String())
}
func (f EqF) format(b *strings.Builder) {
	b.WriteString(f.L.String())
	b.WriteString(" = ")
	b.WriteString(f.R.String())
}
func (f AndF) format(b *strings.Builder) {
	if len(f.Fs) == 0 {
		b.WriteString("true")
		return
	}
	for i, g := range f.Fs {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		if _, isImp := g.(ImpliesF); isImp {
			b.WriteString("(")
			g.format(b)
			b.WriteString(")")
		} else {
			g.format(b)
		}
	}
}
func (f ImpliesF) format(b *strings.Builder) {
	f.L.format(b)
	b.WriteString(" → ")
	if _, isImp := f.R.(ImpliesF); isImp {
		b.WriteString("(")
		f.R.format(b)
		b.WriteString(")")
	} else {
		f.R.format(b)
	}
}
func (f ExistsF) format(b *strings.Builder) {
	for _, v := range f.Vars {
		fmt.Fprintf(b, "∃%s", v)
	}
	b.WriteString("( ")
	f.F.format(b)
	b.WriteString(" )")
}
func (f ForallF) format(b *strings.Builder) {
	for _, v := range f.Vars {
		fmt.Fprintf(b, "∀%s", v)
	}
	b.WriteString("( ")
	f.F.format(b)
	b.WriteString(" )")
}

// Format renders a formula in logic notation.
func Format(f Formula) string {
	var b strings.Builder
	f.format(&b)
	return b.String()
}

// Rewriting returns the consistent first-order rewriting of CERTAINTY(q)
// per the proof of Lemma 10, or an error when the attack graph of q is
// cyclic (no rewriting exists, by Theorem 2). It is the rewriting
// rendered along the compiled elimination order (see
// Eliminator.Rewriting).
func Rewriting(q query.Query) (Formula, error) {
	g, err := attack.BuildGraph(q)
	if err != nil {
		return nil, err
	}
	if g.HasCycle() {
		return nil, fmt.Errorf("rewrite: attack graph of %s is cyclic; no first-order rewriting exists", q)
	}
	e, err := CompileAcyclic(q)
	if err != nil {
		return nil, err
	}
	return e.Rewriting(), nil
}

// Rewriting renders the consistent first-order rewriting of the
// compiled query along its elimination order; the parameters are the
// formula's free variables. Construction, one atom F = R(s̄ | t̄) of the
// order at a time:
//
//	∃(new vars of F)( R(s̄ | t̄) ∧ ∀w̄( R(s̄ | w̄) → eqs(w̄) ∧ φ' ) )
//
// where w̄ are fresh variables for the non-key positions, eqs(w̄) restores
// the constants and repeated variables of t̄, and φ' is the rewriting of
// q \ {F} with each non-key variable renamed to its w. This mirrors
// Example 5 of the paper.
func (e *Eliminator) Rewriting() Formula {
	return e.rewriteRec(e.query, query.NewVarSet(e.params...), e.query.Vars(), 0)
}

// freshVar returns a variable based on base that is not in used, priming
// it as needed (y, y', y”, ...), and records it in used.
func freshVar(base query.Var, used query.VarSet) query.Var {
	v := base
	for used.Has(v) {
		v += "'"
	}
	used.Add(v)
	return v
}

// rewriteRec renders the residue q, whose variables in bound are
// instantiated by the enclosing quantifiers, from order[depth] on. The
// residue's atoms carry the renamed variables, so order[depth] is found
// by its relation (the query is self-join-free).
func (e *Eliminator) rewriteRec(q query.Query, bound, used query.VarSet, depth int) Formula {
	if q.Empty() {
		return TrueF{}
	}
	f, _ := q.AtomWithRel(e.order[depth].Rel.Name)
	rest := q.Remove(f)

	// New variables of F to quantify existentially.
	var exVars []query.Var
	seen := bound.Clone()
	for _, t := range f.Args {
		if t.IsVar() && !seen.Has(t.Var()) {
			seen.Add(t.Var())
			exVars = append(exVars, t.Var())
		}
	}

	// Universal part: fresh w-variables for the non-key positions
	// (primed copies of the original names, as in Example 5's y').
	keyVarsAfter := bound.Clone()
	for _, t := range f.KeyArgs() {
		if t.IsVar() {
			keyVarsAfter.Add(t.Var())
		}
	}

	var inner Formula
	if f.Rel.KeyLen == f.Rel.Arity {
		// The whole tuple is the key: blocks are singletons and the
		// universal part is vacuous.
		inner = AndF{Fs: []Formula{
			AtomF{Atom: f},
			e.rewriteRec(rest, keyVarsAfter, used, depth+1),
		}}
	} else {
		freshArgs := make([]query.Term, f.Rel.Arity)
		copy(freshArgs, f.KeyArgs())
		var wVars []query.Var
		var eqs []Formula
		rename := map[query.Var]query.Var{}
		for j, t := range f.NonKeyArgs() {
			base := query.Var("w")
			if t.IsVar() {
				base = t.Var()
			}
			w := freshVar(base, used)
			wVars = append(wVars, w)
			freshArgs[f.Rel.KeyLen+j] = query.V(w)
			switch {
			case t.IsConst():
				eqs = append(eqs, EqF{L: query.V(w), R: t})
			case keyVarsAfter.Has(t.Var()):
				// Variable also occurs in the key (or outer scope): the
				// block fact must repeat its value.
				eqs = append(eqs, EqF{L: query.V(w), R: t})
			case rename[t.Var()] != "":
				// Repeated non-key variable: equate with its first w.
				eqs = append(eqs, EqF{L: query.V(w), R: query.V(rename[t.Var()])})
			default:
				rename[t.Var()] = w
			}
		}
		restRenamed := rest.RenameVars(rename)
		newBound := keyVarsAfter.Clone()
		for _, w := range wVars {
			newBound.Add(w)
		}
		body := append(eqs, e.rewriteRec(restRenamed, newBound, used, depth+1))
		forall := ForallF{
			Vars: wVars,
			F: ImpliesF{
				L: AtomF{Atom: query.Atom{Rel: f.Rel, Args: freshArgs}},
				R: AndF{Fs: body},
			},
		}
		inner = AndF{Fs: []Formula{AtomF{Atom: f}, forall}}
	}
	if len(exVars) == 0 {
		return inner
	}
	return ExistsF{Vars: exVars, F: inner}
}
