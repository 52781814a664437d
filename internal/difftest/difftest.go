// Package difftest cross-checks every evaluation engine against the
// brute-force repair-enumeration oracle on randomly generated
// self-join-free queries and small uncertain databases. It is the
// differential backbone of the fuzz suite: a single Generate+Check pair
// drives both the seeded corpus test and the native fuzz target, so a
// disagreement found while fuzzing replays as an ordinary unit test.
package difftest

import (
	"context"
	"fmt"
	"math/rand"

	"cqa/internal/attack"
	"cqa/internal/conp"
	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/ptime"
	"cqa/internal/query"
	"cqa/internal/rewrite"
	"cqa/internal/workload"
)

// MaxOracleRepairs bounds the instances Check is willing to ground-truth:
// the oracle enumerates every repair, so the bound keeps a single case in
// the low milliseconds (the same guard E10 uses).
const MaxOracleRepairs = 1 << 13

// NumShapes is the number of generator families Generate cycles through.
// The families are chosen so all three complexity classes of Theorem 1
// appear: random queries mix classes, the path/star/cycle families lean
// FO, q0 is the canonical PTime\FO query, and the non-key join is
// coNP-complete.
const NumShapes = 6

// Generate derives one differential case deterministically from a seed
// and a shape selector. Same inputs, same case — which is what lets the
// fuzzer's saved failures reproduce.
func Generate(seed int64, shape byte) (query.Query, *db.DB) {
	rng := rand.New(rand.NewSource(seed))
	dbp := workload.DefaultDBParams()
	switch shape % NumShapes {
	case 0:
		qp := workload.DefaultQueryParams()
		qp.Atoms = 1 + rng.Intn(3)
		q := workload.RandomQuery(rng, qp)
		return q, workload.RandomDB(rng, q, dbp)
	case 1:
		q := workload.PathQuery(2 + rng.Intn(3))
		return q, workload.RandomDB(rng, q, dbp)
	case 2:
		q := workload.StarQuery(2 + rng.Intn(3))
		return q, workload.RandomDB(rng, q, dbp)
	case 3:
		q := workload.CycleQuery(2 + rng.Intn(2))
		return q, workload.RandomDB(rng, q, dbp)
	case 4:
		q := workload.Q0()
		return q, workload.Q0Instance(rng, 3+rng.Intn(4), 2)
	default:
		q := workload.NonKeyJoinQuery()
		if rng.Intn(2) == 0 {
			return q, workload.RandomDB(rng, q, dbp)
		}
		return q, workload.HardInstance(rng, 3+rng.Intn(2), 4+rng.Intn(4), 2)
	}
}

// Check evaluates q on d with every applicable engine and compares each
// result against the naive oracle. It returns skipped=true when the
// instance exceeds the oracle bound (nothing was verified), and a non-nil
// error describing the first disagreement otherwise.
func Check(q query.Query, d *db.DB) (skipped bool, err error) {
	if d.NumRepairs() > MaxOracleRepairs {
		return true, nil
	}
	want, err := naive.Certain(q, d)
	if err != nil {
		return true, nil // raced past the oracle bound; nothing to compare
	}
	cls, _, err := attack.Classify(q)
	if err != nil {
		return false, fmt.Errorf("classify: %w", err)
	}

	disagree := func(engine string, got bool) error {
		return fmt.Errorf("%s = %v, oracle = %v (class %s)\nquery: %s\ndb (%d facts, %g repairs):\n%s",
			engine, got, want, cls, q, d.Len(), d.NumRepairs(), d)
	}

	// The production entry point: compile + indexed evaluation with
	// automatic engine selection.
	plan, err := core.Compile(q)
	if err != nil {
		return false, fmt.Errorf("compile: %w", err)
	}
	res, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{})
	if err != nil {
		return false, fmt.Errorf("CertainIndexedCtx: %w", err)
	}
	if res.Certain != want {
		return false, disagree("CertainIndexedCtx/"+res.Engine.String(), res.Certain)
	}

	// The class-specific engines, each on the classes it is sound for.
	if cls == attack.FO {
		got, err := rewrite.Certain(q, d)
		if err != nil {
			return false, fmt.Errorf("rewrite: %w", err)
		}
		if got != want {
			return false, disagree("rewrite.Certain", got)
		}
	}
	if cls != attack.CoNPComplete {
		got, _, err := ptime.Certain(q, d)
		if err != nil {
			return false, fmt.Errorf("ptime: %w", err)
		}
		if got != want {
			return false, disagree("ptime.Certain", got)
		}
	}
	got, _ := conp.Certain(q, d)
	if got != want {
		return false, disagree("conp.Certain", got)
	}
	return false, nil
}
