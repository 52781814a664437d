package cluster_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"cqa/internal/cluster"
	"cqa/internal/core"
	"cqa/internal/difftest"
	"cqa/internal/match"
	"cqa/internal/query"
)

// freeVarsOf picks a deterministic free-variable list for the answers
// comparison: up to two variables in sorted order.
func freeVarsOf(q query.Query) []query.Var {
	vars := q.Vars().Sorted()
	if len(vars) > 2 {
		vars = vars[:2]
	}
	return vars
}

func answerKeySet(t *testing.T, free []query.Var, tab query.Answers) map[string]bool {
	t.Helper()
	keys := make(map[string]bool, len(tab))
	for _, row := range tab {
		k := query.Binding(free, row).Key()
		if keys[k] {
			t.Fatalf("duplicate answer %s", k)
		}
		keys[k] = true
	}
	return keys
}

// TestClusterDifferential replays the seeded difftest corpus (same
// generator and case count as the monolithic differential suite)
// through the Router over the simulated-fault transport. Every
// case runs under one of three rotating fault schedules — a killed
// replica, a slow replica, and a one-way partition (responses lost
// after the work executed) — against a three-way replicated topology.
// A response must agree exactly with the monolithic evaluation; a
// failure must carry the structured shard_unavailable taxonomy. A
// silently wrong verdict or answer set fails the suite.
func TestClusterDifferential(t *testing.T) {
	const wantChecked = 520
	ctx := context.Background()
	names := []string{"n0", "n1", "n2"}
	checked, failedOK := 0, 0
	for seed := int64(0); checked < wantChecked && seed < 5000; seed++ {
		shape := byte(seed % difftest.NumShapes)
		q, d := difftest.Generate(seed, shape)
		plan, err := core.Compile(q)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		ix := match.NewIndex(d)
		mono, err := plan.CertainIndexedCtx(context.Background(), ix, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: monolithic: %v", seed, err)
		}
		free := freeVarsOf(q)
		monoAns, err := plan.CertainAnswersIndexedCtx(ctx, free, ix, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: monolithic answers: %v", seed, err)
		}
		monoKeys := answerKeySet(t, free, monoAns)

		// Fresh replicated topology per case: every node holds the full
		// instance, so any shard can fail over to any replica.
		nodes := make([]*cluster.LocalNode, len(names))
		for i, name := range names {
			nodes[i] = cluster.NewLocalNode(name)
			nodes[i].Store.Put("corpus", d)
		}
		sim := cluster.NewSimNet(cluster.NewLoopback(nodes...), 7+seed)
		switch checked % 3 {
		case 0:
			sim.Crash("n1")
		case 1:
			sim.SetLink("n2", cluster.LinkFaults{Latency: time.Millisecond, Jitter: time.Millisecond})
		case 2:
			sim.SetLink("n0", cluster.LinkFaults{DropResponse: 1})
		}
		r, err := cluster.NewRouter(cluster.Config{
			Nodes:           names,
			Shards:          5,
			Transport:       sim,
			MaxAttempts:     3,
			RetryBackoff:    time.Millisecond,
			BreakerCooldown: 50 * time.Millisecond,
			Seed:            seed,
		})
		if err != nil {
			t.Fatalf("seed %d: router: %v", seed, err)
		}

		res, partial, err := r.Certain(ctx, plan, "corpus", core.Options{})
		if err != nil {
			if !cluster.Unavailable(err) {
				t.Fatalf("seed %d: unstructured cluster error: %v", seed, err)
			}
			failedOK++
		} else {
			if res.Certain != mono.Certain {
				t.Fatalf("seed %d: cluster = %v (partial %d), monolithic = %v\nquery: %s\ndb:\n%s",
					seed, res.Certain, partial, mono.Certain, q, d)
			}
			if partial != 0 && !res.Approximate {
				t.Fatalf("seed %d: %d failed shards without the Approximate flag", seed, partial)
			}
		}

		ans, err := r.CertainAnswers(ctx, plan, "corpus", free, core.Options{})
		if err != nil {
			if !cluster.Unavailable(err) {
				t.Fatalf("seed %d: unstructured answers error: %v", seed, err)
			}
			failedOK++
		} else {
			keys := answerKeySet(t, free, ans)
			if len(keys) != len(monoKeys) {
				t.Fatalf("seed %d: cluster answers %d, monolithic %d\nquery: %s (free %v)\ndb:\n%s",
					seed, len(keys), len(monoKeys), q, free, d)
			}
			for mk := range monoKeys {
				if !keys[mk] {
					t.Fatalf("seed %d: answer %s missing from cluster union\nquery: %s (free %v)\ndb:\n%s",
						seed, mk, q, free, d)
				}
			}
		}
		checked++
	}
	if checked < wantChecked {
		t.Fatalf("verified only %d cases, want %d", checked, wantChecked)
	}
	// Replicated failover should absorb nearly every injected fault; a
	// structured failure is tolerated but must stay rare.
	if failedOK > wantChecked/10 {
		t.Fatalf("%d of %d cases failed closed; failover should absorb most faults", failedOK, checked)
	}
	t.Logf("verified %d cases under rotating kill/slow/partition schedules (%d structured failures)", checked, failedOK)
}

// routerWidths are the partition widths the fault-free router
// differential compares against the monolithic path: the degenerate
// single shard, and two coprime widths so block ownership actually
// moves between them.
var routerWidths = []int{1, 3, 7}

// TestRouterDifferentialWidths replays the seeded difftest corpus
// through the Router over a perfect Loopback of two LocalNodes at
// widths 1, 3 and 7: with no faults every verdict must agree exactly
// with the monolithic evaluation and every answer set must equal it —
// the partition merge itself, separate from TestClusterDifferential's
// failover paths.
func TestRouterDifferentialWidths(t *testing.T) {
	const wantChecked = 520
	ctx := context.Background()
	names := []string{"n0", "n1"}
	checked := 0
	for seed := int64(0); checked < wantChecked && seed < 5000; seed++ {
		q, d := difftest.Generate(seed, byte(seed%difftest.NumShapes))
		plan, err := core.Compile(q)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		ix := match.NewIndex(d)
		mono, err := plan.CertainIndexedCtx(context.Background(), ix, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: monolithic: %v", seed, err)
		}
		free := freeVarsOf(q)
		monoAns, err := plan.CertainAnswersIndexedCtx(ctx, free, ix, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: monolithic answers: %v", seed, err)
		}
		monoKeys := answerKeySet(t, free, monoAns)

		nodes := make([]*cluster.LocalNode, len(names))
		for i, name := range names {
			nodes[i] = cluster.NewLocalNode(name)
			nodes[i].Store.Put("corpus", d)
		}
		lb := cluster.NewLoopback(nodes...)
		for _, k := range routerWidths {
			r, err := cluster.NewRouter(cluster.Config{Nodes: names, Shards: k, Transport: lb})
			if err != nil {
				t.Fatalf("seed %d width %d: router: %v", seed, k, err)
			}
			res, partial, err := r.Certain(ctx, plan, "corpus", core.Options{})
			if err != nil || partial != 0 || res.Approximate {
				t.Fatalf("seed %d width %d: certain err %v, partial %d, approximate %v", seed, k, err, partial, res.Approximate)
			}
			if res.Certain != mono.Certain {
				t.Fatalf("seed %d width %d: routed = %v, monolithic = %v\nquery: %s\ndb:\n%s",
					seed, k, res.Certain, mono.Certain, q, d)
			}
			ans, err := r.CertainAnswers(ctx, plan, "corpus", free, core.Options{})
			if err != nil {
				t.Fatalf("seed %d width %d: answers: %v", seed, k, err)
			}
			keys := answerKeySet(t, free, ans)
			if len(keys) != len(monoKeys) {
				t.Fatalf("seed %d width %d: %d answers, monolithic %d\nquery: %s (free %v)\ndb:\n%s",
					seed, k, len(keys), len(monoKeys), q, free, d)
			}
			for mk := range monoKeys {
				if !keys[mk] {
					t.Fatalf("seed %d width %d: answer %s missing\nquery: %s (free %v)\ndb:\n%s",
						seed, k, mk, q, free, d)
				}
			}
			if !slices.EqualFunc(ans, monoAns, slices.Equal) {
				t.Fatalf("seed %d width %d: routed answers %v, monolithic %v: same set, different order",
					seed, k, ans, monoAns)
			}
		}
		checked++
	}
	if checked < wantChecked {
		t.Fatalf("verified only %d cases, want %d", checked, wantChecked)
	}
	t.Logf("verified %d cases at widths %v", checked, routerWidths)
}
