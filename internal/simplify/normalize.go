package simplify

import (
	"fmt"

	"cqa/internal/query"
)

// NormalizeQuery runs the query-level part of the Lemma 12 pipeline —
// pattern elimination, key packing, saturation — without a database.
// The result has no repeated variables inside atoms, constants only at
// simple-key key positions, simple-key mode-i atoms, and is saturated.
// Useful for static analysis of the dissolution regime (e.g. in tests of
// Lemmas 14/15); the solver applies the same steps jointly with their
// database transformations.
func NormalizeQuery(q query.Query) (query.Query, error) {
	if step, changed := ElimPatterns(q); changed {
		q = step.Q
	}
	step, changed, err := PackCompositeKeys(q)
	if err != nil {
		return query.Query{}, fmt.Errorf("simplify: %w", err)
	}
	if changed {
		q = step.Q
	}
	// Each step makes K([[q]]) entail the x -> z it was missing, so
	// saturation ends after at most |vars(q)|^2 steps.
	for {
		step, more, err := Saturate(q)
		if err != nil {
			return query.Query{}, fmt.Errorf("simplify: %w", err)
		}
		if !more {
			return q, nil
		}
		q = step.Q
	}
}
