package ptime

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"cqa/internal/evalctx"
	"cqa/internal/workload"
)

// TestDeadlineLatencyPTime bounds how long the P engine overruns a
// deadline on a q0 instance large enough that a full run takes well
// over the deadline. Its time goes to the joins of purification and
// dissolution's G(db): the joins poll the checker per candidate fact
// and G(db) per constraint it reads, so the evaluation returns within
// the 200ms deadline plus 100ms of slack.
func TestDeadlineLatencyPTime(t *testing.T) {
	const deadline, slack = 200 * time.Millisecond, 100 * time.Millisecond
	d := workload.Q0Instance(rand.New(rand.NewSource(3)), 60000, 2)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, _, err := CertainNoStrongCycleChecked(workload.Q0(), d, evalctx.New(ctx, evalctx.Limits{}))
	elapsed := time.Since(start)
	t.Logf("returned after %v", elapsed)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v after %v, want context.DeadlineExceeded", err, elapsed)
	}
	if elapsed > deadline+slack {
		t.Errorf("deadline overrun: returned after %v (bound %v)", elapsed, deadline+slack)
	}
}

// TestBudgetReachesEveryStage runs each effort pin under every step
// budget smaller than the steps its full run takes: each must stop with
// the budget error, wherever in the pipeline the budget runs out —
// purification, typing, pattern elimination and key packing,
// gpurification, the saturation projection, G(db), a Lemma 9 branch or
// a satisfaction test. The full budget gives the pinned verdict.
func TestBudgetReachesEveryStage(t *testing.T) {
	const unlimited = 1 << 40
	for _, p := range ptimePins {
		d := p.build()
		chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: unlimited, Interval: 1})
		got, _, err := CertainNoStrongCycleChecked(p.q, d, chk)
		if err != nil || got != p.certain {
			t.Fatalf("%s: certain=%v, %v; want certain=%v", p.name, got, err, p.certain)
		}
		left, _ := chk.Remaining()
		used := unlimited - left
		for budget := int64(1); budget < used; budget++ {
			chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: budget, Interval: 1})
			if _, _, err := CertainNoStrongCycleChecked(p.q, d, chk); !errors.Is(err, evalctx.ErrBudgetExceeded) {
				t.Fatalf("%s: budget %d of %d: got %v, want the budget error", p.name, budget, used, err)
			}
		}
	}
}
