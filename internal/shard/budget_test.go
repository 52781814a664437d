package shard_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"cqa/internal/cluster"
	"cqa/internal/core"
	"cqa/internal/evalctx"
	"cqa/internal/workload"
)

// TestShardedBudgetDegradesToApproximate: a coNP plan over a
// three-shard partition runs as one task on the shard that owns its
// key. A tiny step budget surfaces ErrBudgetExceeded through that
// dispatch, and with Approximate set the owning node degrades to its
// sampling estimate instead.
func TestShardedBudgetDegradesToApproximate(t *testing.T) {
	q := workload.NonKeyJoinQuery()
	rng := rand.New(rand.NewSource(9))
	d := workload.HardInstance(rng, 30, 120, 4)
	names := []string{"n0", "n1", "n2"}
	nodes := make([]*cluster.LocalNode, len(names))
	for i, name := range names {
		nodes[i] = cluster.NewLocalNode(name)
		nodes[i].Store.Put("hard", d)
	}
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:     names,
		Shards:    3,
		Transport: cluster.NewLoopback(nodes...),
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Engine: core.EngineCoNP, MaxSteps: 50}
	if _, _, err := r.Certain(context.Background(), plan, "hard", opts); !errors.Is(err, evalctx.ErrBudgetExceeded) {
		t.Fatalf("tiny budget through shards: got %v, want ErrBudgetExceeded", err)
	}

	opts.Approximate = true
	opts.Samples = 64
	res, partial, err := r.Certain(context.Background(), plan, "hard", opts)
	if err != nil {
		t.Fatalf("degraded sharded evaluation failed: %v", err)
	}
	if partial != 0 || !res.Approximate {
		t.Fatalf("expected an approximate result through the shard dispatch, got %+v (partial %d)", res, partial)
	}
	if res.Fraction < 0 || res.Fraction > 1 {
		t.Errorf("fraction out of range: %v", res.Fraction)
	}
}
