package rewrite

import (
	"fmt"

	"cqa/internal/db"
	"cqa/internal/query"
)

// modelCheck model-checks a closed formula over the database, with
// quantifiers ranging over the active domain. Exponential in quantifier
// depth, it is the reference the tests validate rewritings against on
// small instances; Certain is the evaluator.
func modelCheck(f Formula, d *db.DB) bool {
	return holds(f, d, d.ActiveDomain(), query.Valuation{})
}

// holds model-checks f over d under the environment env, quantifying
// over adom.
func holds(f Formula, d *db.DB, adom []query.Const, env query.Valuation) bool {
	switch f := f.(type) {
	case TrueF:
		return true
	case FalseF:
		return false
	case AtomF:
		fact, err := db.FactFromAtom(f.Atom.Substitute(env), env)
		return err == nil && d.Has(fact)
	case EqF:
		l, okL := env.Apply(f.L)
		r, okR := env.Apply(f.R)
		return okL && okR && l == r
	case AndF:
		for _, g := range f.Fs {
			if !holds(g, d, adom, env) {
				return false
			}
		}
		return true
	case ImpliesF:
		return !holds(f.L, d, adom, env) || holds(f.R, d, adom, env)
	case ExistsF:
		return holdsQuantified(f.Vars, f.F, d, adom, env, false)
	case ForallF:
		return holdsQuantified(f.Vars, f.F, d, adom, env, true)
	}
	panic(fmt.Sprintf("rewrite: no model check for %T", f))
}

// holdsQuantified binds vars in turn to every constant of adom and
// model-checks body: for all of them when forall, for some otherwise.
func holdsQuantified(vars []query.Var, body Formula, d *db.DB, adom []query.Const, env query.Valuation, forall bool) bool {
	if len(vars) == 0 {
		return holds(body, d, adom, env)
	}
	v, rest := vars[0], vars[1:]
	for _, c := range adom {
		env[v] = c
		ok := holdsQuantified(rest, body, d, adom, env, forall)
		delete(env, v)
		if forall && !ok {
			return false
		}
		if !forall && ok {
			return true
		}
	}
	return forall
}
