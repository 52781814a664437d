package difftest

import (
	"context"
	"testing"

	"cqa/internal/core"
	"cqa/internal/match"
	"cqa/internal/naive"
)

// TestColumnarDifferential replays the seeded corpus through the
// columnar FO engine two ways — the interned span walk and the sharded
// scatter over span partitions — and requires exact agreement with the
// brute-force oracle on every FO-acyclic case within the oracle bound.
// This is the corpus-level guard for the interned walk: the unit
// equivalences in package rewrite check it against the row-oriented
// reference recursion, this test checks it against ground truth across
// all generator families.
func TestColumnarDifferential(t *testing.T) {
	const wantChecked = 520
	ctx := context.Background()
	checked, fo := 0, 0
	for seed := int64(0); checked < wantChecked && seed < 5000; seed++ {
		shape := byte(seed % NumShapes)
		q, d := Generate(seed, shape)
		if d.NumRepairs() > MaxOracleRepairs {
			continue
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			continue // raced past the oracle bound
		}
		checked++
		plan, err := core.Compile(q)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		if plan.Elim == nil || plan.HasCycle {
			continue // no compiled eliminator; the FO fast path does not apply
		}
		fo++
		ix := match.NewIndex(d)

		flat, err := plan.Elim.CertainOverSpans(ix, nil, nil)
		if err != nil {
			t.Fatalf("seed %d: CertainOverSpans: %v", seed, err)
		}
		if flat != want {
			t.Fatalf("seed %d: interned = %v, oracle = %v\nquery: %s\ndb:\n%s", seed, flat, want, q, d)
		}

		res, err := plan.CertainIndexedCtx(ctx, ix, core.Options{Shards: 3})
		if err != nil {
			t.Fatalf("seed %d: sharded: %v", seed, err)
		}
		if res.Certain != want {
			t.Fatalf("seed %d: sharded spans = %v, oracle = %v\nquery: %s\ndb:\n%s", seed, res.Certain, want, q, d)
		}
	}
	if checked < 500 {
		t.Fatalf("verified only %d cases, want >= 500", checked)
	}
	if fo < 100 {
		t.Fatalf("only %d FO-acyclic cases exercised the interned walk; the corpus should produce far more", fo)
	}
	t.Logf("verified %d cases, %d through the interned walk (flat + sharded)", checked, fo)
}
