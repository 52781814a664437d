package difftest

import (
	"testing"

	"cqa/internal/core"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/shard"
)

// partitionCertain decides an FO plan as the routed scatter does: the
// OR of the span-restricted walk over every shard of the partition.
func partitionCertain(plan *core.Plan, ix *match.Index, part *shard.Partition) (bool, error) {
	top := plan.TopRelation()
	for id := 0; id < part.N(); id++ {
		ok, err := plan.Elim.CertainOverSpans(ix, part.View(id).SpansOf(top), nil)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// TestColumnarDifferential replays the seeded corpus through the
// columnar FO engine two ways — the interned span walk over every
// block, and the OR of span walks over a width-3 partition — and
// requires exact agreement with the
// brute-force oracle on every FO-acyclic case within the oracle bound.
// This is the corpus-level guard for the interned walk: the unit
// equivalences in package rewrite check it against the row-oriented
// reference recursion, this test checks it against ground truth across
// all generator families.
func TestColumnarDifferential(t *testing.T) {
	const wantChecked = 520
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

		split, err := partitionCertain(plan, ix, shard.NewPartition(d, 3))
		if err != nil {
			t.Fatalf("seed %d: partition: %v", seed, err)
		}
		if split != want {
			t.Fatalf("seed %d: partitioned spans = %v, oracle = %v\nquery: %s\ndb:\n%s", seed, split, want, q, d)
		}
	}
	if checked < 500 {
		t.Fatalf("verified only %d cases, want >= 500", checked)
	}
	if fo < 100 {
		t.Fatalf("only %d FO-acyclic cases exercised the interned walk; the corpus should produce far more", fo)
	}
	t.Logf("verified %d cases, %d through the interned walk (flat + partitioned)", checked, fo)
}
