package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cqa/internal/cluster"
	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/faultinject"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// testTopology builds a replicated loopback cluster: every node's store
// holds dbText under dbName.
func testTopology(t *testing.T, names []string, dbName, dbText string) (*cluster.SimNet, []*cluster.LocalNode, *db.DB) {
	t.Helper()
	d, err := db.ParseFacts(nil, dbText)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*cluster.LocalNode, len(names))
	for i, name := range names {
		nodes[i] = cluster.NewLocalNode(name)
		nodes[i].Store.Put(dbName, d)
	}
	return cluster.NewSimNet(cluster.NewLoopback(nodes...), 1), nodes, d
}

// falsifiable is an FO query + instance pair that is NOT certain, so a
// Boolean scatter must consult every shard (no early exit) — the shape
// that exposes lost shards.
const falsifiableQuery = "R(x | y), S(y | z)"
const falsifiableDB = "R(a | b)\nR(a | c)\nS(b | z1)\nR(d | e)\nR(d | e2)\nS(e | z2)\nR(f | g)\nR(f | g2)\nS(g | z3)"

func compilePlan(t *testing.T, text string) *core.Plan {
	t.Helper()
	q, _, err := core.Normalize(text)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func monoCertain(t *testing.T, plan *core.Plan, d *db.DB) bool {
	t.Helper()
	res, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Certain
}

// TestRouterFailoverOnKilledNode crashes one replica of three: every
// shard homed on it fails over along the ring and the verdict stays
// exact.
func TestRouterFailoverOnKilledNode(t *testing.T) {
	sim, _, d := testTopology(t, []string{"n0", "n1", "n2"}, "corpus", falsifiableDB)
	plan := compilePlan(t, falsifiableQuery)
	want := monoCertain(t, plan, d)
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:        []string{"n0", "n1", "n2"},
		Shards:       6,
		Transport:    sim,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Crash("n1")
	res, partial, err := r.Certain(context.Background(), plan, "corpus", core.Options{})
	if err != nil {
		t.Fatalf("certain with one dead replica: %v", err)
	}
	if partial != 0 {
		t.Fatalf("replicated failover reported %d failed shards; expected an exact verdict", partial)
	}
	if res.Certain != want {
		t.Fatalf("certain = %v, monolithic = %v", res.Certain, want)
	}
	st := r.Stats()
	if st.Retries == 0 {
		t.Errorf("no retries recorded while a replica was down: %+v", st)
	}
}

// TestRouterRetriesOneWayPartition drops every response from one node
// (the node executes the work; only the answer is lost): retries fail
// over and the verdict stays exact.
func TestRouterRetriesOneWayPartition(t *testing.T) {
	sim, _, d := testTopology(t, []string{"n0", "n1"}, "corpus", falsifiableDB)
	plan := compilePlan(t, falsifiableQuery)
	want := monoCertain(t, plan, d)
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:        []string{"n0", "n1"},
		Shards:       4,
		Transport:    sim,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetLink("n0", cluster.LinkFaults{DropResponse: 1})
	res, partial, err := r.Certain(context.Background(), plan, "corpus", core.Options{})
	if err != nil {
		t.Fatalf("certain under one-way partition: %v", err)
	}
	if partial != 0 || res.Certain != want {
		t.Fatalf("partition verdict = (%v, partial %d), want (%v, 0)", res.Certain, partial, want)
	}
	free := []query.Var{"x"}
	ans, err := r.CertainAnswers(context.Background(), plan, "corpus", free, core.Options{})
	if err != nil {
		t.Fatalf("answers under one-way partition: %v", err)
	}
	monoAns, err := plan.CertainAnswersIndexedCtx(context.Background(), free, match.NewIndex(d), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != len(monoAns) {
		t.Fatalf("answers under partition: %d, monolithic %d", len(ans), len(monoAns))
	}
}

// TestRouterHedgeWinsOnSlowNode stalls every delivery to one of two
// replicas: the hedged duplicate on the healthy replica wins well under
// the stall.
func TestRouterHedgeWinsOnSlowNode(t *testing.T) {
	sim, _, d := testTopology(t, []string{"n0", "n1"}, "corpus", falsifiableDB)
	plan := compilePlan(t, falsifiableQuery)
	want := monoCertain(t, plan, d)
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:        []string{"n0", "n1"},
		Shards:       4,
		Transport:    sim,
		HedgeFloor:   2 * time.Millisecond,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const stall = 400 * time.Millisecond
	sim.SetLink("n0", cluster.LinkFaults{StallEvery: 1, Stall: stall})
	start := time.Now()
	res, partial, err := r.Certain(context.Background(), plan, "corpus", core.Options{})
	if err != nil {
		t.Fatalf("hedged certain: %v", err)
	}
	if partial != 0 || res.Certain != want {
		t.Fatalf("hedged verdict = (%v, partial %d), want (%v, 0)", res.Certain, partial, want)
	}
	if took := time.Since(start); took >= stall {
		t.Errorf("hedged scatter took %v; the duplicate did not win over the %v stall", took, stall)
	}
	st := r.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Errorf("expected hedges and hedge wins, got %+v", st)
	}
}

// TestRouterBreakerOpensAndRecovers kills a replica until its breaker
// opens, then restarts it: the half-open probe readmits it and the
// breaker closes again.
func TestRouterBreakerOpensAndRecovers(t *testing.T) {
	sim, _, _ := testTopology(t, []string{"n0", "n1"}, "corpus", falsifiableDB)
	plan := compilePlan(t, falsifiableQuery)
	cooldown := 30 * time.Millisecond
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:            []string{"n0", "n1"},
		Shards:           4,
		Transport:        sim,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Crash("n1")
	breakerIs := func(name string, want cluster.BreakerState) bool {
		for _, ns := range r.Stats().Nodes {
			if ns.Name == name {
				return ns.Breaker == want
			}
		}
		t.Fatalf("node %s missing from stats", name)
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for !breakerIs("n1", cluster.BreakerOpen) {
		if time.Now().After(deadline) {
			t.Fatalf("breaker for the dead node never opened: %+v", r.Stats())
		}
		if _, _, err := r.Certain(context.Background(), plan, "corpus", core.Options{}); err != nil {
			t.Fatalf("request failed with a healthy replica available: %v", err)
		}
	}
	sim.Restart("n1")
	time.Sleep(cooldown + 5*time.Millisecond)
	for !breakerIs("n1", cluster.BreakerClosed) {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after restart: %+v", r.Stats())
		}
		if _, _, err := r.Certain(context.Background(), plan, "corpus", core.Options{}); err != nil {
			t.Fatalf("request failed after restart: %v", err)
		}
	}
}

// TestRouterPartialFailureDegradesOrFailsClosed makes a slice of node
// executions fail on a single-replica cluster (no failover possible):
// with Approximate the all-false merge degrades explicitly; without it
// the request fails closed with the shard_unavailable taxonomy — in
// neither case a silently wrong boolean.
func TestRouterPartialFailureDegradesOrFailsClosed(t *testing.T) {
	defer faultinject.Reset()
	sim, _, d := testTopology(t, []string{"solo"}, "corpus", falsifiableDB)
	plan := compilePlan(t, falsifiableQuery)
	if monoCertain(t, plan, d) {
		t.Fatal("instance must not be certain for this test")
	}
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:        []string{"solo"},
		Shards:       4,
		Transport:    sim,
		MaxAttempts:  1,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("chaos")
	// Two of the four shard executions fail; the survivors report false.
	faultinject.SetWindow("cluster.node.exec", 0, 2, func(int) error { return boom })
	res, partial, err := r.Certain(context.Background(), plan, "corpus", core.Options{Approximate: true})
	faultinject.Clear("cluster.node.exec")
	if err != nil {
		t.Fatalf("degradable partial scatter errored: %v", err)
	}
	if partial == 0 || !res.Approximate || res.Certain {
		t.Fatalf("partial scatter = %+v (failed %d), want an explicit approximate false", res, partial)
	}
	if res.Fraction <= 0 || res.Fraction >= 1 {
		t.Errorf("surviving fraction %v out of (0,1)", res.Fraction)
	}

	faultinject.SetWindow("cluster.node.exec", 0, 2, func(int) error { return boom })
	_, _, err = r.Certain(context.Background(), plan, "corpus", core.Options{})
	faultinject.Clear("cluster.node.exec")
	if err == nil {
		t.Fatal("non-approximate partial scatter concluded without error")
	}
	if !errors.Is(err, cluster.ErrUnavailable) {
		t.Fatalf("fail-closed error is unstructured: %v", err)
	}
}

// TestRouterAnswersFailClosed: the answers merge is a set union with no
// sound degraded form, so a shard that stays unreachable fails the
// whole request even with Approximate set.
func TestRouterAnswersFailClosed(t *testing.T) {
	defer faultinject.Reset()
	sim, _, _ := testTopology(t, []string{"solo"}, "corpus", falsifiableDB)
	plan := compilePlan(t, falsifiableQuery)
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:        []string{"solo"},
		Shards:       3,
		Transport:    sim,
		MaxAttempts:  1,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("chaos")
	faultinject.SetWindow("cluster.node.exec", 0, 1, func(int) error { return boom })
	_, err = r.CertainAnswers(context.Background(), plan, "corpus", []query.Var{"x"}, core.Options{Approximate: true})
	faultinject.Clear("cluster.node.exec")
	if err == nil {
		t.Fatal("answers merge concluded from a partial union")
	}
	if !errors.Is(err, cluster.ErrUnavailable) {
		t.Fatalf("fail-closed answers error is unstructured: %v", err)
	}
}

// TestRouterBudgetSharedAcrossCluster: the step budget travels with the
// request (remaining budget per attempt, remote steps charged back), so
// a coNP evaluation that exhausts it surfaces ErrBudgetExceeded — and
// degrades to the node-side sampling estimate when Approximate is set.
func TestRouterBudgetSharedAcrossCluster(t *testing.T) {
	q := workload.NonKeyJoinQuery()
	rng := rand.New(rand.NewSource(9))
	d := workload.HardInstance(rng, 30, 120, 4)
	node := cluster.NewLocalNode("solo")
	node.Store.Put("hard", d)
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:     []string{"solo"},
		Transport: cluster.NewLoopback(node),
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
		t.Fatalf("tiny budget through the cluster: got %v, want ErrBudgetExceeded", err)
	}
	opts.Approximate = true
	opts.Samples = 64
	res, partial, err := r.Certain(context.Background(), plan, "hard", opts)
	if err != nil {
		t.Fatalf("degraded cluster evaluation failed: %v", err)
	}
	if partial != 0 || !res.Approximate {
		t.Fatalf("expected the node-side sampling degradation, got %+v (partial %d)", res, partial)
	}
}

// TestRouterRequestDefectIsPermanent: a node-diagnosed request defect
// (unknown free variable) returns immediately as a RequestError without
// burning retries.
func TestRouterRequestDefectIsPermanent(t *testing.T) {
	sim, _, _ := testTopology(t, []string{"n0"}, "corpus", falsifiableDB)
	plan := compilePlan(t, falsifiableQuery)
	r, err := cluster.NewRouter(cluster.Config{Nodes: []string{"n0"}, Transport: sim})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.CertainAnswers(context.Background(), plan, "corpus", []query.Var{"nosuch"}, core.Options{})
	var re *cluster.RequestError
	if !errors.As(err, &re) {
		t.Fatalf("unknown free variable: got %v, want RequestError", err)
	}
	if st := r.Stats(); st.Retries != 0 {
		t.Errorf("a permanent defect burned %d retries", st.Retries)
	}
}

// TestSimNetDeterminism: the same seed replays the same fault schedule.
func TestSimNetDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		node := cluster.NewLocalNode("n")
		d, err := db.ParseFacts(nil, falsifiableDB)
		if err != nil {
			t.Fatal(err)
		}
		node.Store.Put("corpus", d)
		sim := cluster.NewSimNet(cluster.NewLoopback(node), seed)
		sim.SetLink("n", cluster.LinkFaults{DropRequest: 0.5})
		req := cluster.EvalRequest{Query: "R(x | y), S(y | z)", DB: "corpus", Kind: cluster.KindBool, Shard: 0, Shards: 2, Engine: "fo"}
		var outcomes []bool
		for i := 0; i < 32; i++ {
			_, err := sim.Eval(context.Background(), "n", &req)
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedules diverged at delivery %d: %v vs %v", i, a, b)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("seeds 7 and 8 produced identical schedules (possible but unlikely)")
	}
}

// TestNodeExecShardWidthMismatch: a node whose snapshot already cached
// a partition of a different width still evaluates the requested
// partition correctly through an uncached one, and the union over the
// requested width matches the monolithic verdict.
func TestNodeExecShardWidthMismatch(t *testing.T) {
	node := cluster.NewLocalNode("n")
	d, err := db.ParseFacts(nil, falsifiableDB)
	if err != nil {
		t.Fatal(err)
	}
	snap := node.Store.Put("corpus", d)
	// Pre-build a partition at width 3; requests will name width 5.
	if p := snap.Partition(3); p.N() != 3 {
		t.Fatal("partition prebuild failed")
	}
	plan := compilePlan(t, falsifiableQuery)
	want := monoCertain(t, plan, d)
	got := false
	for s := 0; s < 5; s++ {
		resp, err := node.Exec(context.Background(), &cluster.EvalRequest{
			Query: plan.Key(), DB: "corpus", Kind: cluster.KindBool, Shard: s, Shards: 5, Engine: "fo",
		})
		if err != nil {
			t.Fatalf("shard %d/5 on a width-3 node: %v", s, err)
		}
		got = got || resp.Certain
	}
	if got != want {
		t.Fatalf("width-mismatch union = %v, monolithic = %v", got, want)
	}
}

// memoRecorder is a Transport that records the memo cap of every
// attempt it carries before delegating. Each shard's first attempt
// holds its primary call until the hedge arrives and then refuses both
// as unavailable, so the first attempt fails only after hedging and
// forces a retry. The record therefore covers all three kinds of
// attempt, whatever the scheduling.
type memoRecorder struct {
	inner  cluster.Transport
	mu     sync.Mutex
	caps   []int
	calls  map[int]int
	hedged map[int]chan struct{}
}

func (m *memoRecorder) Eval(ctx context.Context, node string, req *cluster.EvalRequest) (*cluster.EvalResponse, error) {
	m.mu.Lock()
	m.caps = append(m.caps, req.MemoCap)
	m.calls[req.Shard]++
	n := m.calls[req.Shard]
	hedged, ok := m.hedged[req.Shard]
	if !ok {
		hedged = make(chan struct{})
		m.hedged[req.Shard] = hedged
	}
	m.mu.Unlock()
	switch n {
	case 1:
		select {
		case <-hedged:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: primary refused", cluster.ErrUnavailable)
	case 2:
		close(hedged)
		return nil, fmt.Errorf("%w: hedge refused", cluster.ErrUnavailable)
	}
	return m.inner.Eval(ctx, node, req)
}

func (m *memoRecorder) Ready(ctx context.Context, node string) error {
	return m.inner.Ready(ctx, node)
}

// TestRouterCarriesMemoCap: the request's memo cap rides on every
// routed attempt — first tries, retries and hedges alike — for both the
// Boolean scatter and the answers scatter, so no node evaluates routed
// work with an unlimited memo.
func TestRouterCarriesMemoCap(t *testing.T) {
	sim, _, _ := testTopology(t, []string{"n0", "n1", "n2"}, "corpus", falsifiableDB)
	plan := compilePlan(t, falsifiableQuery)
	const memoCap = 4321
	const shards = 4
	for _, kind := range []string{"certain", "answers"} {
		rec := &memoRecorder{inner: sim, calls: map[int]int{}, hedged: map[int]chan struct{}{}}
		r, err := cluster.NewRouter(cluster.Config{
			Nodes:        []string{"n0", "n1", "n2"},
			Shards:       shards,
			Transport:    rec,
			RetryBackoff: time.Millisecond,
			HedgeFloor:   2 * time.Millisecond,
			// Two refusals per shard must not open a breaker and
			// leave a later hedge without a second node.
			BreakerThreshold: 4 * shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{MemoCap: memoCap}
		if kind == "certain" {
			_, _, err = r.Certain(context.Background(), plan, "corpus", opts)
		} else {
			_, err = r.CertainAnswers(context.Background(), plan, "corpus", []query.Var{"x"}, opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		st := r.Stats()
		if st.Retries < shards || st.Hedges < shards {
			t.Fatalf("%s: %d retries and %d hedges, want >= %d each", kind, st.Retries, st.Hedges, shards)
		}
		rec.mu.Lock()
		if len(rec.caps) < 3*shards {
			t.Errorf("%s: recorded %d attempts, want >= %d", kind, len(rec.caps), 3*shards)
		}
		for i, c := range rec.caps {
			if c != memoCap {
				t.Errorf("%s: attempt %d carried memo cap %d, want %d", kind, i, c, memoCap)
			}
		}
		rec.mu.Unlock()
	}
}

// TestRouterAnswersRejectMalformedReply: a shard reply whose answers are
// not rows of one column per free variable — the object form an older
// node sends, or a row of the wrong width — fails the request as
// unavailable through the real HTTP transport. It never decodes to an
// empty or truncated answer set.
func TestRouterAnswersRejectMalformedReply(t *testing.T) {
	plan, err := core.Compile(query.MustParse("R(x | y), S(y | z)"))
	if err != nil {
		t.Fatal(err)
	}
	free := []query.Var{"x"}
	for _, tc := range []struct {
		name, body string
		want       int // answers; -1 = an unavailable error
	}{
		{"rows", `{"certain": false, "answers": [["a"]], "steps": 1}`, 2},
		{"none", `{"certain": false, "steps": 1}`, 0},
		{"object form", `{"certain": false, "answers": [{"x": "a"}], "steps": 1}`, -1},
		{"wide row", `{"certain": false, "answers": [["a", "b"]], "steps": 1}`, -1},
		{"empty row", `{"certain": false, "answers": [[]], "steps": 1}`, -1},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, tc.body) //nolint:errcheck
		}))
		r, err := cluster.NewRouter(cluster.Config{
			Nodes:        []string{ts.URL},
			Shards:       2,
			Transport:    &cluster.HTTPTransport{},
			MaxAttempts:  1,
			RetryBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ans, err := r.CertainAnswers(context.Background(), plan, "corpus", free, core.Options{})
		ts.Close()
		switch {
		case tc.want < 0 && !cluster.Unavailable(err):
			t.Errorf("%s: answers %v, err %v, want an unavailable error", tc.name, ans, err)
		case tc.want >= 0 && (err != nil || len(ans) != tc.want):
			t.Errorf("%s: answers %v, err %v, want %d answers", tc.name, ans, err, tc.want)
		}
	}
}
