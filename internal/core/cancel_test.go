package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// TestCancelMidEliminatorWalk cancels evaluations of an FO query at
// random points of the Eliminator walk, concurrently with the walk
// itself (run under -race). The invariant: a cancelled evaluation
// either finished first and returned the correct boolean, or returned
// ctx.Err() — never a wrong answer.
func TestCancelMidEliminatorWalk(t *testing.T) {
	q := workload.PathQuery(4)
	rng := rand.New(rand.NewSource(7))
	p := workload.DefaultDBParams()
	p.SeedMatches = 4
	d := workload.RandomDB(rng, q, p)
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(d)
	want, err := plan.CertainIndexedCtx(context.Background(), ix, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			if i%3 == 0 {
				runtime.Gosched()
			}
			cancel()
		}()
		res, err := plan.CertainIndexedCtx(ctx, ix, Options{})
		cancel()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: unexpected error %v", i, err)
			}
			continue
		}
		if res.Certain != want.Certain {
			t.Fatalf("iteration %d: wrong boolean %v under cancellation (want %v)", i, res.Certain, want.Certain)
		}
	}

	// A context cancelled before the call starts must fail immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.CertainIndexedCtx(ctx, ix, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}
}

// TestCancelMidCoNPEnumeration does the same for the falsifying-repair
// search on an adversarial coNP instance.
func TestCancelMidCoNPEnumeration(t *testing.T) {
	q := workload.NonKeyJoinQuery()
	rng := rand.New(rand.NewSource(3))
	d := workload.HardInstance(rng, 12, 30, 3)
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(d)
	want, err := plan.CertainIndexedCtx(context.Background(), ix, Options{Engine: EngineCoNP})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		res, err := plan.CertainIndexedCtx(ctx, ix, Options{Engine: EngineCoNP, Approximate: false})
		cancel()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: unexpected error %v", i, err)
			}
			continue
		}
		if res.Certain != want.Certain {
			t.Fatalf("iteration %d: wrong boolean %v under cancellation (want %v)", i, res.Certain, want.Certain)
		}
	}
}

// TestDeadlineLatencyCoNP is the acceptance bound of the robustness
// work: a coNP-class evaluation over a large instance given a 100ms
// deadline must surface context.DeadlineExceeded within 150ms — the
// amortized poll interval must not let the engine overrun the deadline.
func TestDeadlineLatencyCoNP(t *testing.T) {
	q := workload.NonKeyJoinQuery()
	// The SAT reduction of an unsatisfiable random 3-CNF at 4.3 clauses
	// per variable: the falsifying-repair search must exhaust, which
	// takes 2-3s on a 2-vCPU host, while the join takes about a
	// millisecond. An instance whose cost is the join can finish first,
	// and the test then skips.
	d := workload.SATInstance(workload.RandomCNF(rand.New(rand.NewSource(2)), 34, 146, 3))
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(d)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := plan.CertainIndexedCtx(ctx, ix, Options{Engine: EngineCoNP, Approximate: false})
	elapsed := time.Since(start)
	if err == nil {
		t.Skipf("instance solved before the deadline (%v, certain=%v); nothing to bound", elapsed, res.Certain)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("deadline overrun: evaluation returned after %v (bound 150ms)", elapsed)
	}
}

// TestBudgetExhaustionAndDegradation exercises the step budget on the
// coNP engine: exhaustion surfaces evalctx.ErrBudgetExceeded without
// Approximate, and degrades to a deterministic sampling estimate with
// it.
func TestBudgetExhaustionAndDegradation(t *testing.T) {
	q := workload.NonKeyJoinQuery()
	rng := rand.New(rand.NewSource(9))
	d := workload.HardInstance(rng, 30, 120, 4)
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(d)
	opts := Options{Engine: EngineCoNP, MaxSteps: 50}
	if _, err := plan.CertainIndexedCtx(context.Background(), ix, opts); !errors.Is(err, evalctx.ErrBudgetExceeded) {
		t.Fatalf("tiny budget: got %v, want ErrBudgetExceeded", err)
	}

	opts.Approximate = true
	opts.Samples = 64
	res, err := plan.CertainIndexedCtx(context.Background(), ix, opts)
	if err != nil {
		t.Fatalf("degraded evaluation failed: %v", err)
	}
	if !res.Approximate {
		t.Fatalf("expected an approximate result, got %+v", res)
	}
	if res.Fraction < 0 || res.Fraction > 1 {
		t.Errorf("fraction out of range: %v", res.Fraction)
	}
	// The degraded path is deterministic: same request, same estimate.
	res2, err := plan.CertainIndexedCtx(context.Background(), ix, opts)
	if err != nil || res2.Fraction != res.Fraction || res2.Certain != res.Certain {
		t.Errorf("degraded answer not deterministic: %+v vs %+v (err %v)", res, res2, err)
	}
}

// TestAnswersPoolNoGoroutineLeak times out a parallel CertainAnswers
// evaluation mid-flight and verifies every pool worker exits: the
// goroutine count returns to its pre-call level.
func TestAnswersPoolNoGoroutineLeak(t *testing.T) {
	// Sized so the answer pool is still busy at the deadline: each of
	// the four candidates t is the SAT reduction of a random 3-CNF at 34
	// variables and 4.3 clauses per variable, whose check is a
	// falsifying-repair search of 0.3-3s rather than a join.
	q := query.MustParse("R(t, x | y), S(t, u | y)")
	d := db.New()
	for k := int64(1); k <= 4; k++ {
		tag := query.Const(fmt.Sprint("f", k))
		for _, f := range workload.SATInstance(workload.RandomCNF(rand.New(rand.NewSource(k)), 34, 146, 3)).Facts() {
			a, _ := q.AtomWithRel(f.Rel.Name)
			d.Add(db.NewFact(a.Rel, tag, f.Args[0], f.Args[1]))
		}
	}
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(d)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = plan.CertainAnswersIndexedCtx(ctx, []query.Var{query.Var("t")}, ix, Options{Engine: EngineCoNP, Workers: 8})
	if err == nil {
		t.Skip("instance solved before the deadline; no mid-flight pool to leak")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak after timeout: %d before, %d after\n%s", before, g, buf[:n])
	}
}

// TestAnswersCancellationConsistent races cancellation against the
// parallel answer pool: a run that returns nil error must produce
// exactly the uncancelled answer set.
func TestAnswersCancellationConsistent(t *testing.T) {
	q := workload.PathQuery(3)
	rng := rand.New(rand.NewSource(13))
	p := workload.DefaultDBParams()
	p.SeedMatches = 3
	d := workload.RandomDB(rng, q, p)
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(d)
	free := []query.Var{query.Var("x1")}
	want, err := plan.CertainAnswersIndexedCtx(context.Background(), free, ix, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		got, err := plan.CertainAnswersIndexedCtx(ctx, free, ix, Options{Workers: 4})
		cancel()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: unexpected error %v", i, err)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("iteration %d: %d answers under cancellation, want %d", i, len(got), len(want))
		}
	}
}
