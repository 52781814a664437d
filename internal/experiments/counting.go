package experiments

import (
	"context"
	"fmt"
	"time"

	"cqa/internal/core"
	"cqa/internal/counting"
	"cqa/internal/match"
	"cqa/internal/query"
)

func init() {
	register("E21", "#CERTAINTY engine: anytime sampling accuracy and exact/approx latency", runE21)
}

// runE21 characterizes the repair-counting engine along the two axes the
// anytime contract trades between. Accuracy: a hub instance small enough
// to count exactly (one component, space 2^17) is re-counted with the
// exact bound forced down so the component samples instead, at growing
// sample budgets — the estimate's error must sit inside its reported 95%
// confidence half-width and the half-width must shrink with the budget.
// Latency: count-exact on the falsified chain and count-approx on the
// oversized hub at the eval sweep sizes (1k/10k blocks), one count per
// op, timed.
func runE21(r *Runner) error {
	q := query.MustParse(evalQueryText)
	plan, err := core.Compile(q)
	if err != nil {
		return err
	}

	// Accuracy: exact ground truth vs forced sampling on the same index.
	hub := evalHubDB(q, 17)
	hix := match.NewIndex(hub)
	truth, err := counting.Count(q, hix, nil, counting.Options{Exact: true})
	if err != nil {
		return err
	}
	acc := Table{
		Title:   "anytime estimator accuracy (hub instance, one component, space 2^17)",
		Headers: []string{"samples", "exact-fraction", "estimate", "abs-err", "confidence", "in-interval"},
	}
	budgets := []int{256, 1024, 4096}
	if r.Quick {
		budgets = []int{256, 1024}
	}
	for _, n := range budgets {
		est, err := counting.Count(q, hix, nil, counting.Options{ComponentLimit: 16, Samples: n, Seed: r.Seed + 21})
		if err != nil {
			return err
		}
		if est.Exact || est.Sampled != 1 {
			return fmt.Errorf("E21: forced sampling did not engage (exact=%v sampled=%d)", est.Exact, est.Sampled)
		}
		errAbs := absf(est.Fraction - truth.Fraction)
		acc.AddRow(n, truth.Fraction, est.Fraction, errAbs, est.Confidence, errAbs <= est.Confidence+1e-9)
	}
	acc.Notes = append(acc.Notes,
		"the estimator samples repairs of the oversized component uniformly; the interval is a 95% bound (rule of three at the extremes)",
		"deterministic seeding: the same instance and budget reproduce the same estimate")
	acc.Fprint(r.Out)

	// Latency: exact factorized counting vs the degraded sampling path.
	lat := Table{
		Title:   "repair-counting latency: exact (falsified chain) vs anytime (oversized hub)",
		Headers: []string{"blocks", "exact", "components", "approx", "sampled"},
	}
	for _, blocks := range evalCountSizes(r.Quick) {
		cd := evalFalsifiedChainDB(q, blocks)
		cix := match.NewIndex(cd)
		var exactRes core.CountResult
		exactT := timeIt(func() {
			var err error
			exactRes, err = plan.CountIndexedCtx(context.Background(), cix, core.Options{})
			if err != nil {
				panic(err)
			}
		})
		if !exactRes.Exact {
			return fmt.Errorf("E21: chain instance (%d blocks) not counted exactly", blocks)
		}
		hd := evalHubDB(q, blocks)
		ix := match.NewIndex(hd)
		var approxRes core.CountResult
		approxT := timeIt(func() {
			var err error
			approxRes, err = plan.CountIndexedCtx(context.Background(), ix, core.Options{Approximate: true})
			if err != nil {
				panic(err)
			}
		})
		if approxRes.Exact || approxRes.Sampled != 1 {
			return fmt.Errorf("E21: hub instance (%d blocks) did not degrade to sampling", blocks)
		}
		lat.AddRow(blocks, exactT.Round(time.Microsecond), exactRes.Components,
			approxT.Round(time.Microsecond), approxRes.Sampled)
	}
	lat.Notes = append(lat.Notes,
		"exact counting factorizes over constraint components (Maslowski & Wijsen); the chain has blocks/2 tiny components",
		"the hub is ONE component with assignment space 2^blocks — counted anyway, as an estimate, instead of a refusal")
	lat.Fprint(r.Out)
	return nil
}
