package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cqa/internal/core"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/trace"
	"cqa/internal/workload"
)

func init() {
	register("E17", "observability: per-engine stage breakdowns and tracing overhead", runE17)
}

// runE17 validates the two operational claims of the tracing work:
//
//  1. Stage breakdowns — a traced evaluation decomposes its wall-clock
//     into the stages each engine actually passes through (eliminator
//     for FO, the dissolution pipeline for P, purify+match+DPLL for
//     coNP), with the effort counters (steps, nodes, dissolutions)
//     flushed alongside.
//  2. Tracing overhead — the warm indexed hot path with a live tracer
//     versus the untraced path stays small, and the disabled path is
//     free: a nil *trace.Tracer is a no-op at every instrumentation
//     point (zero allocations, pinned by internal/trace's tests).
func runE17(r *Runner) error {
	if err := runE17Stages(r); err != nil {
		return err
	}
	return runE17Overhead(r)
}

func runE17Stages(r *Runner) error {
	rng := rand.New(rand.NewSource(r.Seed))

	type target struct {
		engine string
		inst   string
		q      query.Query
		ix     *match.Index
		opts   core.Options
	}
	var targets []target

	// FO: the Lemma 9/10 walk over a falsified chain.
	foq := query.MustParse("R(x | y), S(y | z)")
	foBlocks := 10000
	if r.Quick {
		foBlocks = 1000
	}
	targets = append(targets, target{
		engine: "fo", inst: fmt.Sprintf("chain/%d", foBlocks), q: foq,
		ix: match.NewIndex(evalFalsifiedChainDB(foq, foBlocks)),
	})

	// P: the Theorem 4 dissolution pipeline on q0 = R0(x|y), S0(y|x).
	pq := workload.Q0()
	pNodes := 300
	if r.Quick {
		pNodes = 50
	}
	targets = append(targets, target{
		engine: "ptime", inst: fmt.Sprintf("q0/%d", pNodes), q: pq,
		ix: match.NewIndex(workload.Q0Instance(rng, pNodes, 2)),
	})

	// coNP: purification + match enumeration + the DPLL repair search.
	// valuesPerVar stays at 2 so purification does not dissolve the
	// instance before the search runs (larger domains leave no matches,
	// and an instance with no matches never reaches the DPLL stage).
	cq := workload.NonKeyJoinQuery()
	cVars, cClauses := 16, 60
	if r.Quick {
		cVars, cClauses = 8, 20
	}
	targets = append(targets, target{
		engine: "conp", inst: fmt.Sprintf("hard/%dx%d", cVars, cClauses), q: cq,
		ix:   match.NewIndex(workload.HardInstance(rng, cVars, cClauses, 2)),
		opts: core.Options{Engine: core.EngineCoNP},
	})

	t := &Table{
		Title:   "per-engine stage breakdown (one traced evaluation each, warm index)",
		Headers: []string{"engine", "instance", "stage", "spans", "us", "counters"},
	}
	for _, tg := range targets {
		plan, err := core.Compile(tg.q)
		if err != nil {
			return err
		}
		// Warm the lazy index structures so the trace shows engine work,
		// not the one-time index build.
		if _, err := plan.CertainIndexedCtx(context.Background(), tg.ix, tg.opts); err != nil {
			return err
		}
		opts := tg.opts
		opts.Tracer = trace.New()
		if _, err := plan.CertainIndexedCtx(context.Background(), tg.ix, opts); err != nil {
			return err
		}
		for _, st := range opts.Tracer.Breakdown() {
			keys := make([]string, 0, len(st.Counters))
			for k := range st.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%d", k, st.Counters[k]))
			}
			t.AddRow(tg.engine, tg.inst, st.Stage, st.Spans, st.Micros, strings.Join(parts, " "))
		}
	}
	t.Notes = append(t.Notes,
		"stages are recorded by the engines themselves via the evalctx.Checker's tracer",
		"counters: steps/memo (eliminator), branches/dissolutions (ptime), nodes/restarts (conp)")
	t.Fprint(r.Out)
	return nil
}

func runE17Overhead(r *Runner) error {
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
	if _, err := plan.CertainIndexedCtx(context.Background(), ix, core.Options{}); err != nil {
		return err
	}

	// Best-of-3 per variant, as in E16: single runs of a ~ms-scale op are
	// noisy enough to swamp a sub-5% effect.
	bench := func(f func() error) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := f(); err != nil {
						b.Fatal(err)
					}
				}
			})
			ns := float64(res.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	ctx := context.Background()
	offNs := bench(func() error {
		_, err := plan.CertainIndexedCtx(ctx, ix, core.Options{})
		return err
	})
	onNs := bench(func() error {
		_, err := plan.CertainIndexedCtx(ctx, ix, core.Options{Tracer: trace.New()})
		return err
	})
	t := &Table{
		Title:   fmt.Sprintf("tracing overhead, warm indexed FO path (chain/%d)", blocks),
		Headers: []string{"variant", "tracer", "ns/op", "overhead"},
	}
	t.AddRow("CertainIndexedCtx", "nil (tracing off)", offNs, "baseline")
	t.AddRow("CertainIndexedCtx", "live (fresh per op)", onNs,
		fmt.Sprintf("%+.2f%%", 100*(onNs-offNs)/offNs))
	t.Notes = append(t.Notes,
		"best of 3 testing.Benchmark runs per variant",
		"the off path is the instrumented code with a nil tracer: every span/counter call",
		"is a nil-receiver no-op, and allocates nothing (internal/trace TestNilTracerZeroAlloc)")
	t.Fprint(r.Out)
	return nil
}
