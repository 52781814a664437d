package simplify

import (
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// SimulateConsistent implements the direction of Proposition 1 that
// eliminates mode-c relations: every atom R^c(x̄ | ȳ) is replaced by two
// fresh mode-i atoms R1(x̄ | ȳ) and R2(x̄ | ȳ) over the same terms, and
// every R-fact is copied into R1 and R2. Because the R-facts of a legal
// input are consistent, R1 and R2 each contribute singleton blocks whose
// only repair is the full copy, so certainty is preserved; the paper
// states the equivalence as a first-order reduction.
//
// The transformation shows mode-c relations are syntactic convenience,
// not extra power; the library uses it for cross-validation.
func SimulateConsistent(q query.Query) (Step, bool) {
	s := q.Schema()
	type pair struct{ r1, r2 schema.Relation }
	pairs := make(map[string]pair)
	newAtoms := make([]query.Atom, 0, q.Len()+2)
	changed := false
	for _, a := range q.Atoms {
		if a.Rel.Mode != schema.ModeC {
			newAtoms = append(newAtoms, a)
			continue
		}
		changed = true
		r1 := schema.Relation{Name: s.FreshName(a.Rel.Name + "_c1"), Arity: a.Rel.Arity, KeyLen: a.Rel.KeyLen, Mode: schema.ModeI}
		s.MustAdd(r1)
		r2 := schema.Relation{Name: s.FreshName(a.Rel.Name + "_c2"), Arity: a.Rel.Arity, KeyLen: a.Rel.KeyLen, Mode: schema.ModeI}
		s.MustAdd(r2)
		pairs[a.Rel.Name] = pair{r1, r2}
		newAtoms = append(newAtoms,
			query.Atom{Rel: r1, Args: a.Args},
			query.Atom{Rel: r2, Args: a.Args},
		)
	}
	if !changed {
		return Step{}, false
	}
	return Step{
		Name: "simulate-consistent",
		Q:    query.NewQuery(newAtoms...),
		TransformDB: func(d *db.DB, chk *evalctx.Checker) (*db.DB, error) {
			out := db.New()
			for _, f := range d.Facts() {
				if err := chk.Step(); err != nil {
					return nil, err
				}
				p, ok := pairs[f.Rel.Name]
				if !ok {
					out.Add(f)
					continue
				}
				out.Add(db.Fact{Rel: p.r1, Args: f.Args})
				out.Add(db.Fact{Rel: p.r2, Args: f.Args})
			}
			return out, nil
		},
	}, true
}
