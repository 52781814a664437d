package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cqa/internal/baseline"
	"cqa/internal/core"
	"cqa/internal/counting"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/workload"
)

func init() {
	register("E13", "#CERTAINTY: exact counting vs sampling estimate", runE13)
	register("E14", "Fuxman-Miller rewriting vs the Lemma 9/10 engine on Cforest", runE14)
}

func runE13(r *Runner) error {
	q := workload.Q0()
	sizes := []int{4, 8, 16, 32, 64}
	if r.Quick {
		sizes = []int{4, 8}
	}
	t := Table{
		Title:   "exact satisfying-repair counts vs sampling (q0 on independent gadgets)",
		Headers: []string{"gadgets", "repairs", "exact-fraction", "estimate", "abs-err", "components"},
	}
	for _, n := range sizes {
		// n independent 2x2 gadgets: per gadget 4 repairs, 1 satisfying
		// combination missing from 3 falsifiers, so the exact fraction
		// is 1 - (3/4)^n — an analytic cross-check on top of the count.
		d := db.New()
		rRel := q.Atoms[0].Rel
		sRel := q.Atoms[1].Rel
		for i := 0; i < n; i++ {
			x := query.Const(fmt.Sprintf("x%d", i))
			y := query.Const(fmt.Sprintf("y%d", i))
			d.Add(db.Fact{Rel: rRel, Args: []query.Const{x, y}})
			d.Add(db.Fact{Rel: rRel, Args: []query.Const{x, query.Const(fmt.Sprintf("ydead%d", i))}})
			d.Add(db.Fact{Rel: sRel, Args: []query.Const{y, x}})
			d.Add(db.Fact{Rel: sRel, Args: []query.Const{y, query.Const(fmt.Sprintf("xdead%d", i))}})
		}
		res, err := counting.SatisfyingRepairs(q, d)
		if err != nil {
			return err
		}
		exact := res.Fraction
		// ComponentLimit 1 forces every component onto the Monte Carlo
		// path the counter takes beyond its exact count bound.
		est, err := counting.Count(q, match.NewIndex(d), nil, counting.Options{
			ComponentLimit: 1, Samples: 2000, Seed: r.Seed + 13,
		})
		if err != nil {
			return err
		}
		t.AddRow(n, res.Total.String(), exact, est.Fraction, absf(exact-est.Fraction), res.Components)
	}
	t.Notes = append(t.Notes,
		"exact counts factorize over independent constraint components (cf. the #CERTAINTY dichotomy of Maslowski & Wijsen)",
		"the estimate column is the repair counter forced to sample every component (2000 draws each); per-component errors compound across the product")
	t.Fprint(r.Out)
	return nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func runE14(r *Runner) error {
	rng := rand.New(rand.NewSource(r.Seed + 14))
	queries := []string{
		"R(x | y), S(y | z)",
		"R(x | y), S(y | z), T(z | w)",
		"R(x | y, z), S(y | w)",
	}
	sizes := []int{100, 1000, 5000}
	if r.Quick {
		sizes = []int{50, 200}
	}
	t := Table{
		Title:   "Fuxman-Miller Cforest rewriting vs the attack-graph engine",
		Headers: []string{"query", "facts", "fm", "kw", "agree"},
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		if !baseline.InCforest(q) {
			return fmt.Errorf("E14: %s unexpectedly outside Cforest", qs)
		}
		for _, n := range sizes {
			p := workload.DefaultDBParams()
			p.SeedMatches = n
			p.Domain = n
			p.ExtraPerBlock = 0.4
			p.Noise = n / 10
			d := workload.RandomDB(rng, q, p)
			var fmRes, kwRes bool
			fmT := timeIt(func() {
				var err error
				fmRes, err = baseline.FMCertain(q, d)
				if err != nil {
					panic(err)
				}
			})
			kwT := timeIt(func() {
				plan, err := core.Compile(q)
				if err != nil {
					panic(err)
				}
				res, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{Engine: core.EngineFO})
				if err != nil {
					panic(err)
				}
				kwRes = res.Certain
			})
			t.AddRow(qs, d.Len(), fmT.Round(time.Microsecond), kwT.Round(time.Microsecond), fmRes == kwRes)
		}
	}
	t.Notes = append(t.Notes,
		"on Cforest queries the two engines implement equivalent rewritings; the attack-graph engine additionally covers every acyclic attack graph")
	t.Fprint(r.Out)
	return nil
}

func init() {
	register("E15", "certainty and repair fraction vs inconsistency rate", runE15)
}

func runE15(r *Runner) error {
	rng := rand.New(rand.NewSource(r.Seed + 15))
	q := query.MustParse("R(x | y), S(y | z)")
	plan, err := core.Compile(q)
	if err != nil {
		return err
	}
	rates := []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0}
	trials := 40
	blocks := 12
	if r.Quick {
		rates = []float64{0, 0.5}
		trials = 10
	}
	t := Table{
		Title:   "certainty vs inconsistency on R(x|y), S(y|z)",
		Headers: []string{"extra-per-block", "trials", "certain-rate", "mean-fraction", "possible-rate"},
	}
	for _, rate := range rates {
		certain, possible, counted := 0, 0, 0
		var fracSum float64
		for i := 0; i < trials; i++ {
			p := workload.DefaultDBParams()
			p.SeedMatches = blocks
			p.Domain = blocks
			p.ExtraPerBlock = rate
			p.Noise = 0
			d := workload.RandomDB(rng, q, p)
			res, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{})
			if err != nil {
				return err
			}
			if res.Certain {
				certain++
			}
			if core.Possible(q, d) {
				possible++
			}
			// Exact counts are only available while the constraint
			// components stay enumerable; average over those trials.
			if cnt, err := counting.SatisfyingRepairs(q, d); err == nil {
				fracSum += cnt.Fraction
				counted++
			}
		}
		frac := "-"
		if counted > 0 {
			frac = fmt.Sprintf("%.3f (n=%d)", fracSum/float64(counted), counted)
		}
		t.AddRow(rate, trials,
			fmt.Sprintf("%d/%d", certain, trials),
			frac,
			fmt.Sprintf("%d/%d", possible, trials))
	}
	t.Notes = append(t.Notes,
		"as key violations accumulate, certainty decays towards zero while possibility persists",
		"mean-fraction averages the exact satisfying-repair fraction over the trials where the component bound permits exact counting")
	t.Fprint(r.Out)
	return nil
}
