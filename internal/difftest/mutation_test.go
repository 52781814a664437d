package difftest

import (
	"context"
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/shard"
)

// blockKey identifies the block a fact belongs to: relation name plus
// the key prefix of its arguments.
func blockKey(f db.Fact) string {
	k := f.Rel.Name
	for _, a := range f.Args[:f.Rel.KeyLen] {
		k += "\x00" + string(a)
	}
	return k
}

// TestMutationReplayDifferential replays the seeded corpus through
// randomized mutation scripts: each case starts from a generated base
// instance, shuffles its facts into chunks, and drives an Apply chain
// that deletes each chunk and then re-inserts it (whole blocks through
// the upsert path, partial blocks through single-fact inserts). After
// every applied delta, the structurally-shared version must answer
// exactly like a database rebuilt from scratch out of the expected fact
// set — on the flat compiled engine and, for FO plans, the OR over a
// width-3 partition derived along the chain — and after the full
// script the chain must land back on the base instance.
// This is the corpus-level guard for the MVCC delta path: any aliasing
// bug, stale interned column, or mis-spliced span shows up as an
// engine disagreement between the derived and the rebuilt instance.
func TestMutationReplayDifferential(t *testing.T) {
	const wantChecked = 520
	ctx := context.Background()
	checked, applies := 0, 0
	for seed := int64(0); checked < wantChecked && seed < 5000; seed++ {
		shape := byte(seed % NumShapes)
		q, d := Generate(seed, shape)
		if d.Len() < 2 || d.NumRepairs() > MaxOracleRepairs {
			continue
		}
		plan, err := core.Compile(q)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		checked++

		// The expected fact set, maintained alongside the Apply chain and
		// used to rebuild the reference database at every checkpoint.
		want := map[string]db.Fact{}
		baseBlockSize := map[string]int{}
		for _, f := range d.Facts() {
			want[f.String()] = f
			baseBlockSize[blockKey(f)]++
		}

		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		facts := append([]db.Fact(nil), d.Facts()...)
		rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
		nchunks := 1 + rng.Intn(3)
		per := (len(facts) + nchunks - 1) / nchunks

		// FO plans also decide through a width-3 partition that follows
		// the Apply chain by Derive, as a snapshot's cached one does.
		var part *shard.Partition
		if plan.ScatterableFO(core.Options{}) {
			part = shard.NewPartition(d, 3)
		}
		apply := func(cur *db.DB, delta db.Delta) (*db.DB, error) {
			child, res, err := cur.ApplyChanges(delta)
			if err == nil && part != nil {
				part = part.Derive(child, res.Changes)
			}
			return child, err
		}

		checkpoint := func(cur *db.DB, step string) {
			rebuilt := db.New()
			for _, f := range want {
				rebuilt.Add(f)
			}
			if cur.Len() != rebuilt.Len() || cur.NumBlocks() != rebuilt.NumBlocks() {
				t.Fatalf("seed %d %s: derived has %d facts/%d blocks, rebuilt %d/%d\nquery: %s",
					seed, step, cur.Len(), cur.NumBlocks(), rebuilt.Len(), rebuilt.NumBlocks(), q)
			}
			for _, f := range want {
				if !cur.Has(f) {
					t.Fatalf("seed %d %s: derived is missing %s", seed, step, f)
				}
			}
			ref, err := plan.CertainIndexedCtx(ctx, match.NewIndex(rebuilt), core.Options{})
			if err != nil {
				t.Fatalf("seed %d %s: rebuilt eval: %v", seed, step, err)
			}
			got, err := plan.CertainIndexedCtx(ctx, match.NewIndex(cur), core.Options{})
			if err != nil {
				t.Fatalf("seed %d %s: derived eval: %v", seed, step, err)
			}
			if got.Certain != ref.Certain {
				t.Fatalf("seed %d %s: derived (%s) = %v, rebuilt (%s) = %v\nquery: %s\nderived:\n%s",
					seed, step, got.Engine, got.Certain, ref.Engine, ref.Certain, q, cur)
			}
			if part == nil {
				return
			}
			split, err := partitionCertain(plan, match.NewIndex(cur), part)
			if err != nil {
				t.Fatalf("seed %d %s: derived partition eval: %v", seed, step, err)
			}
			if split != ref.Certain {
				t.Fatalf("seed %d %s: derived partition = %v, rebuilt = %v\nquery: %s\nderived:\n%s",
					seed, step, split, ref.Certain, q, cur)
			}
		}

		cur := d
		// Warm the columnar view so the Apply chain exercises the derived
		// (respliced) path rather than falling back to cold builds.
		cur.Columnar()
		for c := 0; c < nchunks; c++ {
			lo, hi := c*per, (c+1)*per
			if hi > len(facts) {
				hi = len(facts)
			}
			chunk := facts[lo:hi]
			if len(chunk) == 0 {
				continue
			}

			var del db.Delta
			for _, f := range chunk {
				del.Delete(f)
				delete(want, f.String())
			}
			cur, err = apply(cur, del)
			if err != nil {
				t.Fatalf("seed %d chunk %d: delete apply: %v", seed, c, err)
			}
			applies++
			checkpoint(cur, "after-delete")

			// Re-insert: chunks that removed an entire block go back through
			// the upsert path (block replacement), the rest through
			// single-fact inserts.
			byBlock := map[string][]db.Fact{}
			for _, f := range chunk {
				byBlock[blockKey(f)] = append(byBlock[blockKey(f)], f)
			}
			var ins db.Delta
			for bk, group := range byBlock {
				if len(group) == baseBlockSize[bk] && rng.Intn(2) == 0 {
					ins.UpsertBlock(group)
				} else {
					for _, f := range group {
						ins.Insert(f)
					}
				}
				for _, f := range group {
					want[f.String()] = f
				}
			}
			cur, err = apply(cur, ins)
			if err != nil {
				t.Fatalf("seed %d chunk %d: insert apply: %v", seed, c, err)
			}
			applies++
			checkpoint(cur, "after-reinsert")
		}

		// The script nets out to identity: the final version must hold
		// exactly the base facts again.
		if cur.Len() != d.Len() || cur.NumBlocks() != d.NumBlocks() {
			t.Fatalf("seed %d: round-trip landed on %d facts/%d blocks, base has %d/%d",
				seed, cur.Len(), cur.NumBlocks(), d.Len(), d.NumBlocks())
		}
		for _, f := range d.Facts() {
			if !cur.Has(f) {
				t.Fatalf("seed %d: round-trip lost %s", seed, f)
			}
		}
	}
	if checked < 500 {
		t.Fatalf("verified only %d cases, want >= 500", checked)
	}
	t.Logf("verified %d cases through %d applied deltas (flat + partitioned)", checked, applies)
}
