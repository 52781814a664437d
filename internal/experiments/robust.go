package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"cqa/internal/core"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/workload"
)

func init() {
	register("E16", "robustness: cancellation latency and context-check overhead", runE16)
}

// runE16 validates the two operational claims of the cancellation work:
//
//  1. Cancellation latency — the wall-clock between cancelling an
//     in-flight evaluation and the engine returning ctx.Err() — stays in
//     the sub-millisecond range, because every engine polls its checker
//     at least once per evalctx.DefaultInterval units of work.
//  2. Context-check overhead — the warm indexed hot path with a live
//     (cancellable) context versus the unlimited nil-checker path —
//     stays within 5% (the BENCH_eval.json acceptance bound), because a
//     poll is one counter increment amortized over 1024 steps.
func runE16(r *Runner) error {
	if err := runE16Latency(r); err != nil {
		return err
	}
	return runE16Overhead(r)
}

func runE16Latency(r *Runner) error {
	rounds := 50
	if r.Quick {
		rounds = 10
	}
	t := &Table{
		Title:   "cancellation latency: cancel() -> engine returns ctx.Err()",
		Headers: []string{"engine", "instance", "rounds", "p50", "p95", "max"},
	}

	type target struct {
		engine string
		inst   string
		opts   core.Options
		plan   *core.Plan
		ix     *match.Index
	}
	var targets []target

	// FO: the Lemma 9/10 walk over a large falsified chain.
	foq := query.MustParse("R(x | y), S(y | z)")
	foPlan, err := core.Compile(foq)
	if err != nil {
		return err
	}
	foBlocks := 100000
	if r.Quick {
		foBlocks = 10000
	}
	targets = append(targets, target{
		engine: "fo", inst: fmt.Sprintf("chain/%d", foBlocks), opts: core.Options{},
		plan: foPlan, ix: match.NewIndex(evalFalsifiedChainDB(foq, foBlocks)),
	})

	// coNP: the falsifying-repair search on an adversarial instance.
	cq := workload.NonKeyJoinQuery()
	cPlan, err := core.Compile(cq)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.Seed))
	targets = append(targets, target{
		engine: "conp", inst: "hard/60x400", opts: core.Options{Engine: core.EngineCoNP},
		plan: cPlan, ix: match.NewIndex(workload.HardInstance(rng, 60, 400, 6)),
	})

	for _, tg := range targets {
		// Warm the lazy index structures with one full (or deadline-bounded)
		// evaluation so round 1 does not charge the one-time build to the
		// cancellation latency being measured.
		warmCtx, warmCancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		tg.plan.CertainIndexedCtx(warmCtx, tg.ix, tg.opts)
		warmCancel()
		var lats []time.Duration
		for i := 0; i < rounds; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := tg.plan.CertainIndexedCtx(ctx, tg.ix, tg.opts)
				done <- err
			}()
			// Let the evaluation get going, then cancel and time the unwind.
			time.Sleep(time.Millisecond)
			start := time.Now()
			cancel()
			err := <-done
			lat := time.Since(start)
			if err == nil {
				continue // finished before the cancel landed; nothing to measure
			}
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("E16: unexpected error under cancellation: %w", err)
			}
			lats = append(lats, lat)
		}
		if len(lats) == 0 {
			t.AddRow(tg.engine, tg.inst, 0, "-", "-", "-")
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		t.AddRow(tg.engine, tg.inst, len(lats),
			lats[len(lats)/2], lats[len(lats)*95/100], lats[len(lats)-1])
	}
	t.Notes = append(t.Notes,
		"rounds where the evaluation finished before cancel() landed are dropped",
		"engines poll every 1<<10 steps (evalctx.DefaultInterval); latency is the in-between work")
	t.Fprint(r.Out)
	return nil
}

func runE16Overhead(r *Runner) error {
	q := query.MustParse("R(x | y), S(y | z)")
	plan, err := core.Compile(q)
	if err != nil {
		return err
	}
	blocks := 10000
	if r.Quick {
		blocks = 1000
	}
	ix := match.NewIndex(evalFalsifiedChainDB(q, blocks))
	// Warm the memoized structures so both measurements see a warm index.
	if _, err := plan.CertainIndexedCtx(context.Background(), ix, core.Options{}); err != nil {
		return err
	}

	// Best-of-3 per variant: a single testing.Benchmark run of a ~10ms op
	// is noisy enough (GC phase, scheduler) to swamp a sub-5% effect.
	bench := func(f func() error) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := f(); err != nil {
						b.Fatal(err)
					}
				}
			})
			ns := float64(r.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bareNs := bench(func() error {
		_, err := plan.CertainIndexedCtx(context.Background(), ix, core.Options{})
		return err
	})
	checkedNs := bench(func() error {
		_, err := plan.CertainIndexedCtx(ctx, ix, core.Options{})
		return err
	})
	budgetedNs := bench(func() error {
		_, err := plan.CertainIndexedCtx(ctx, ix, core.Options{MaxSteps: 1 << 40})
		return err
	})
	t := &Table{
		Title:   fmt.Sprintf("context-check overhead, warm indexed FO path (chain/%d)", blocks),
		Headers: []string{"variant", "checker", "ns/op", "overhead"},
	}
	t.AddRow("nil checker", "nil (unlimited)", bareNs, "baseline")
	t.AddRow("CertainIndexedCtx", "cancellable ctx", checkedNs,
		fmt.Sprintf("%+.2f%%", 100*(checkedNs-bareNs)/bareNs))
	t.AddRow("CertainIndexedCtx", "ctx + step budget", budgetedNs,
		fmt.Sprintf("%+.2f%%", 100*(budgetedNs-bareNs)/bareNs))
	t.Notes = append(t.Notes,
		"best of 3 testing.Benchmark runs per variant",
		"acceptance bound: checked path within 5% of the BENCH_eval.json warm baseline",
		fmt.Sprintf("poll interval %d steps; a step is one candidate fact / search node / recursion level",
			evalctx.DefaultInterval))
	t.Fprint(r.Out)
	return nil
}
