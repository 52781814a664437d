package core

import (
	"context"

	"cqa/internal/counting"
	"cqa/internal/evalctx"
	"cqa/internal/match"
)

// CountResult reports a repair-counting (#CERTAINTY) evaluation: the
// exact satisfying/total repair counts, or — when oversized constraint
// components degraded to Monte Carlo sampling — an anytime fraction
// estimate with a 95% confidence half-width. Class carries the plan's
// decision-complexity classification alongside the counts.
type CountResult struct {
	counting.Result
	Class Class
}

// CountIndexedCtx counts the repairs of the indexed database that
// satisfy the plan's query, under the caller's context and budget,
// built into an evalctx.Checker exactly like the decision engines:
// cancellation and MaxSteps exhaustion surface as errors mid-count. The
// counter factorizes the instance into constraint components and counts
// each exactly, with the coNP engine's search run to the end, while the
// component's assignment space fits the per-component bound and the
// remaining step budget; beyond that,
// opts.Approximate selects the anytime path — the oversized component
// is estimated by uniform repair sampling (deterministically seeded,
// opts.Samples draws) and the result carries Exact=false with a
// confidence interval instead of an exact Satisfying count. Without
// Approximate an oversized component is a counting.ErrComponentTooLarge
// error.
// A signature mismatch between the query and the stored data is refused
// with a *SignatureError.
func (p *Plan) CountIndexedCtx(ctx context.Context, ix *match.Index, opts Options) (CountResult, error) {
	if err := CheckSignatures(p.Query, ix.DB); err != nil {
		return CountResult{}, err
	}
	chk := evalctx.NewTraced(ctx, evalctx.Limits{MaxSteps: opts.MaxSteps, MemoCap: opts.MemoCap}, opts.Tracer)
	if err := chk.Check(); err != nil {
		return CountResult{}, err
	}
	res, err := counting.Count(p.Query, ix, chk, counting.Options{
		Samples: opts.Samples,
		Exact:   !opts.Approximate,
	})
	if err != nil {
		return CountResult{}, err
	}
	return CountResult{Result: res, Class: p.Class}, nil
}
