package conp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/trace"
	"cqa/internal/workload"
)

// wholeForm returns every constraint and every block of cs: the union
// of all its components, which Count accepts like a single one.
func wholeForm(cs *match.Constraints) (cons, blocks []int32) {
	for ci := range cs.Cons {
		cons = append(cons, int32(ci))
	}
	for b := range cs.Blocks {
		blocks = append(blocks, int32(b))
	}
	return cons, blocks
}

// TestSearchCountVsNaive: counting over the unpurified form, scaled by
// the blocks no constraint touches, gives exactly the repairs that
// falsify q under brute-force enumeration.
func TestSearchCountVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 300; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		q := workload.RandomQuery(rng, p)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if q.Empty() || d.NumRepairs() > 1<<14 {
			continue
		}
		sat, total, err := naive.CountSatisfyingRepairs(q, d)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := match.NewIndex(d).Constraints(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		fals, st, err := NewSearch(cs, nil).Count(wholeForm(cs))
		if err != nil {
			t.Fatal(err)
		}
		constrained := int64(1)
		for _, b := range cs.Blocks {
			constrained *= int64(len(b.Facts))
		}
		if got := fals * (int64(total) / constrained); got != int64(total-sat) {
			t.Fatalf("count %d (scaled %d), want %d falsifying of %d\nq = %s\ndb:\n%s",
				fals, got, total-sat, total, q, d)
		}
		if st.Blocks != len(cs.Blocks) || st.Matches != len(cs.Cons) {
			t.Fatalf("count stats %+v over %d blocks, %d constraints", st, len(cs.Blocks), len(cs.Cons))
		}
	}
}

// budgetInstance is a non-certain SAT reduction whose search needs far
// more than a handful of nodes, in both the decision and the count.
func budgetInstance() *match.Constraints {
	d := satPin(4, 14, 56)()
	cs, err := match.NewIndex(d).Constraints(workload.SATQuery(), nil)
	if err != nil {
		panic(err)
	}
	return cs
}

// formSteps measures the steps the search's input takes on its own:
// the constraint join and its purification.
func formSteps(t *testing.T) int64 {
	t.Helper()
	const budget = 1 << 40
	chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: budget, Interval: 1})
	cs, err := match.NewIndex(satPin(4, 14, 56)()).Constraints(workload.SATQuery(), chk)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.Purified(chk); err != nil {
		t.Fatal(err)
	}
	rem, _ := chk.Remaining()
	return budget - rem
}

// TestSearchBudgetExceeded: a step budget that trips inside the
// decision or inside a count returns ErrBudgetExceeded, with no repair
// and no count.
func TestSearchBudgetExceeded(t *testing.T) {
	t.Run("decision", func(t *testing.T) {
		tr := trace.New()
		lim := evalctx.Limits{MaxSteps: formSteps(t) + 10, Interval: 1}
		chk := evalctx.NewTraced(context.Background(), lim, tr)
		repair, found, _, err := FalsifyingRepairChecked(workload.SATQuery(), satPin(4, 14, 56)(), chk)
		if !errors.Is(err, evalctx.ErrBudgetExceeded) {
			t.Fatalf("want budget exhaustion, got %v", err)
		}
		if repair != nil || found {
			t.Errorf("tripped decision returned found=%v repair of %d facts", found, len(repair))
		}
		spans := 0
		for _, s := range tr.Breakdown() {
			if s.Stage == "conp" {
				spans = int(s.Spans)
			}
		}
		if spans == 0 {
			t.Error("the budget tripped before the search began")
		}
	})
	t.Run("count", func(t *testing.T) {
		cs := budgetInstance()
		chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: 10, Interval: 1})
		s := NewSearch(cs, chk)
		n, _, err := s.Count(wholeForm(cs))
		if !errors.Is(err, evalctx.ErrBudgetExceeded) {
			t.Fatalf("want budget exhaustion, got %v", err)
		}
		if n != 0 {
			t.Errorf("tripped count returned %d", n)
		}
		// The tripped run unwound: the state is clean for the next one.
		for f, no := range s.forbidden {
			if no {
				t.Fatalf("fact %d still forbidden after the unwind", f)
			}
		}
		if s.alive != len(cs.Cons) {
			t.Fatalf("alive = %d after the unwind, want %d", s.alive, len(cs.Cons))
		}
	})
}

// TestSearchCancelled: a cancelled context stops the count too.
func TestSearchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cs := budgetInstance()
	n, _, err := NewSearch(cs, evalctx.New(ctx, evalctx.Limits{Interval: 1})).Count(wholeForm(cs))
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("cancelled count: %d, %v", n, err)
	}
}
