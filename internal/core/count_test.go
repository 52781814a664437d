package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cqa/internal/counting"
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/workload"
)

// TestCountCtxAgainstNaive: the core facade agrees with the oracle and
// with the decision result on random small instances.
func TestCountCtxAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	for trial := 0; trial < 100; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		q := workload.RandomQuery(rng, p)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<11 {
			continue
		}
		sat, total, err := naive.CountSatisfyingRepairs(q, d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := evalCount(context.Background(), q, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatalf("small instance counted approximately\nq=%s", q)
		}
		if res.Total.Cmp(big.NewInt(int64(total))) != 0 || res.Satisfying.Cmp(big.NewInt(int64(sat))) != 0 {
			t.Fatalf("count %v/%v vs oracle %d/%d\nq=%s\ndb:\n%s",
				res.Satisfying, res.Total, sat, total, q, d)
		}
		dec, err := evalCertain(q, d, Options{Engine: EngineCoNP})
		if err != nil {
			t.Fatal(err)
		}
		if (res.Satisfying.Cmp(res.Total) == 0) != dec.Certain {
			t.Fatalf("count %v/%v vs certain=%v\nq=%s\ndb:\n%s",
				res.Satisfying, res.Total, dec.Certain, q, d)
		}
	}
}

func TestCountCtxBudgetAndCancel(t *testing.T) {
	q := query.MustParse("R(x | y), S(u | y)")
	rng := rand.New(rand.NewSource(821))
	d := workload.HardInstance(rng, 6, 12, 2)

	if _, err := evalCount(context.Background(), q, d, Options{MaxSteps: 1}); !errors.Is(err, evalctx.ErrBudgetExceeded) {
		t.Errorf("MaxSteps=1: err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := evalCount(ctx, q, d, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: err = %v", err)
	}
}

// TestCountCtxApproximate: an oversized component degrades under
// Approximate and errors without it, mirroring the decision engines'
// budget-exhaustion contract.
func TestCountCtxApproximate(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := db.New()
	rRel := q.Atoms[0].Rel
	sRel := q.Atoms[1].Rel
	fact := func(rel schema.Relation, args ...string) db.Fact {
		cs := make([]query.Const, len(args))
		for i, a := range args {
			cs[i] = query.Const(a)
		}
		return db.Fact{Rel: rel, Args: cs}
	}
	for i := 0; i < 64; i++ {
		d.Add(fact(rRel, fmt.Sprintf("hx%d", i), "hub"))
		d.Add(fact(rRel, fmt.Sprintf("hx%d", i), fmt.Sprintf("dead%d", i)))
	}
	d.Add(fact(sRel, "hub", "z0"))
	d.Add(fact(sRel, "hub", "z1"))

	if _, err := evalCount(context.Background(), q, d, Options{}); !errors.Is(err, counting.ErrComponentTooLarge) {
		t.Fatalf("exact on oversized: err = %v", err)
	}
	res, err := evalCount(context.Background(), q, d, Options{Approximate: true, Samples: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.Sampled != 1 || res.Confidence <= 0 {
		t.Errorf("degraded count: exact=%v sampled=%d confidence=%v", res.Exact, res.Sampled, res.Confidence)
	}
	if res.Class != FO {
		t.Errorf("class = %v", res.Class)
	}

	// A second component whose constraint is fully forced has zero
	// falsifying assignments, which zeroes the falsifying product: the
	// count snaps back to exact (every repair satisfies q) even though
	// the oversized component was sampled.
	d.Add(fact(rRel, "forced", "g"))
	d.Add(fact(sRel, "g", "h"))
	res, err = evalCount(context.Background(), q, d, Options{Approximate: true, Samples: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Satisfying.Cmp(res.Total) != 0 || res.Fraction != 1 {
		t.Errorf("zero-falsifier short circuit: exact=%v sat=%v total=%v", res.Exact, res.Satisfying, res.Total)
	}
}
