package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cqa/internal/cluster"
	"cqa/internal/faultinject"
	"cqa/internal/trace"
	"cqa/internal/wal"
)

const clusterTestQuery = "R(x | y), S(y | z)"
const clusterTestDB = "R(a | b)\nR(a | c)\nS(b | z1)\nR(d | e)\nR(d | e2)\nS(e | z2)\nR(f | g)\nR(f | g2)\nS(g | z3)"

// newShardNode starts one shard-node server instance over httptest with
// the test database preloaded.
func newShardNode(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{CacheSize: 64, MaxWorkers: 8, ShardNode: true})
	if _, err := srv.Store().PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestShardEvalEndpoint(t *testing.T) {
	_, ts := newShardNode(t)
	tr := &cluster.HTTPTransport{}
	resp, err := tr.Eval(context.Background(), ts.URL, &cluster.EvalRequest{
		Query: clusterTestQuery, DB: "corpus", Kind: cluster.KindBool, Shard: 0, Shards: 2, Engine: "fo",
	})
	if err != nil {
		t.Fatalf("shard eval over HTTP: %v", err)
	}
	if resp.Certain {
		t.Fatalf("shard 0 of the falsifiable instance reported certain")
	}

	// A request defect (shard out of range) is a permanent RequestError.
	_, err = tr.Eval(context.Background(), ts.URL, &cluster.EvalRequest{
		Query: clusterTestQuery, DB: "corpus", Kind: cluster.KindBool, Shard: 9, Shards: 2, Engine: "fo",
	})
	var re *cluster.RequestError
	if !errors.As(err, &re) {
		t.Fatalf("out-of-range shard: got %v, want RequestError", err)
	}

	// An unknown database is a replication race: retryable unavailability.
	_, err = tr.Eval(context.Background(), ts.URL, &cluster.EvalRequest{
		Query: clusterTestQuery, DB: "nosuch", Kind: cluster.KindBool, Shard: 0, Shards: 2, Engine: "fo",
	})
	if !cluster.Unavailable(err) {
		t.Fatalf("unknown database over HTTP: got %v, want Unavailable", err)
	}
}

// TestShardEvalNotRoutedByDefault: a server without -shard-node does
// not expose the endpoint.
func TestShardEvalNotRoutedByDefault(t *testing.T) {
	h := newTestServer().Handler()
	rec := do(t, h, "POST", "/v1/shard/eval", `{}`, nil)
	if rec.Code != 404 && rec.Code != 405 {
		t.Fatalf("shard eval on a non-node instance: %d, want 404/405", rec.Code)
	}
}

// TestClusterRoutedCertainHTTP runs the full remote tier over real
// sockets: three shard nodes behind a routing front end, one node
// killed mid-run. Verdicts stay exact and the router's retry counters
// surface in /metrics.
func TestClusterRoutedCertainHTTP(t *testing.T) {
	var urls []string
	var nodes []*httptest.Server
	for i := 0; i < 3; i++ {
		_, ts := newShardNode(t)
		urls = append(urls, ts.URL)
		nodes = append(nodes, ts)
	}
	front := New(Config{CacheSize: 64, MaxWorkers: 8, ClusterNodes: urls, ClusterShards: 6})
	if _, err := front.Store().PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	h := front.Handler()

	body := fmt.Sprintf(`{"query": %q, "db": "corpus"}`, clusterTestQuery)
	var resp certainResponse
	rec := do(t, h, "POST", "/v1/certain", body, &resp)
	if rec.Code != 200 || resp.Certain || resp.Approximate {
		t.Fatalf("routed certain: %d %+v", rec.Code, resp)
	}
	if resp.DB == nil || resp.DB.Name != "corpus" {
		t.Fatalf("routed certain lost the db ref: %+v", resp)
	}

	// Kill one replica: failover keeps the verdict exact.
	nodes[1].Close()
	resp = certainResponse{}
	rec = do(t, h, "POST", "/v1/certain", body, &resp)
	if rec.Code != 200 || resp.Certain || resp.Approximate {
		t.Fatalf("routed certain with a dead node: %d %+v", rec.Code, resp)
	}

	mrec := do(t, h, "GET", "/metrics", "", nil)
	for _, frag := range []string{"cqa_cluster_retries_total", "cqa_cluster_breaker_state{node=", "cqa_cluster_node_latency_seconds_count{node="} {
		if !strings.Contains(mrec.Body.String(), frag) {
			t.Errorf("metrics missing %q", frag)
		}
	}
}

// TestClusterRoutedAnswersHTTP: the routed answers union matches the
// local evaluation exactly.
func TestClusterRoutedAnswersHTTP(t *testing.T) {
	_, ts := newShardNode(t)
	front := New(Config{CacheSize: 64, MaxWorkers: 8, ClusterNodes: []string{ts.URL}, ClusterShards: 3})
	if _, err := front.Store().PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	h := front.Handler()
	body := fmt.Sprintf(`{"query": %q, "db": "corpus", "free": ["x"]}`, clusterTestQuery)
	var resp answersBody
	rec := do(t, h, "POST", "/v1/answers", body, &resp)
	if rec.Code != 200 {
		t.Fatalf("routed answers: %d %s", rec.Code, rec.Body.String())
	}

	// The same request evaluated locally (no cluster) must agree.
	local := newTestServer()
	if _, err := local.Store().PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	var want answersBody
	if rec := do(t, local.Handler(), "POST", "/v1/answers", body, &want); rec.Code != 200 {
		t.Fatalf("local answers: %d", rec.Code)
	}
	if resp.Count != want.Count {
		t.Fatalf("routed answers %d, local %d", resp.Count, want.Count)
	}

	// Unknown database 404s at the front without touching the cluster.
	rec = do(t, h, "POST", "/v1/answers", fmt.Sprintf(`{"query": %q, "db": "nosuch", "free": ["x"]}`, clusterTestQuery), nil)
	if rec.Code != 404 {
		t.Fatalf("unknown db through the cluster front: %d", rec.Code)
	}
}

// newLoopbackFront returns a routing front over one in-process node,
// both holding the test database, with every evaluation slow-logged.
func newLoopbackFront(t *testing.T) *Server {
	t.Helper()
	node := cluster.NewLocalNode("solo")
	if _, err := node.Store.PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	front := New(Config{
		CacheSize: 64, MaxWorkers: 8,
		ClusterNodes:     []string{"solo"},
		ClusterShards:    2,
		ClusterTransport: cluster.NewLoopback(node),
		SlowLogThreshold: time.Nanosecond,
	})
	if _, err := front.Store().PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	return front
}

// TestUnknownFreeVariableSameStatusRoutedAndLocal: an answers request
// naming a free variable outside the query is the same request defect
// whether the front evaluates it or routes it — 400 bad_request on
// both.
func TestUnknownFreeVariableSameStatusRoutedAndLocal(t *testing.T) {
	local := newTestServer()
	if _, err := local.Store().PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"query": %q, "db": "corpus", "free": ["nosuch"]}`, clusterTestQuery)
	for name, h := range map[string]http.Handler{"local": local.Handler(), "routed": newLoopbackFront(t).Handler()} {
		rec := do(t, h, "POST", "/v1/answers", body, nil)
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: error envelope: %v\n%s", name, err, rec.Body.String())
		}
		if rec.Code != 400 || er.Code != "bad_request" {
			t.Errorf("%s: %d %q (%s), want 400 bad_request", name, rec.Code, er.Code, er.Error)
		}
	}
}

// TestRepeatedFreeVariableRejected: a free variable listed twice is a
// request defect on every answers path — the local handler, the routing
// front, and a shard node validating its wire input — 400 bad_request
// on each.
func TestRepeatedFreeVariableRejected(t *testing.T) {
	local := newTestServer()
	if _, err := local.Store().PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	node, _ := newShardNode(t)
	answers := fmt.Sprintf(`{"query": %q, "db": "corpus", "free": ["x", "z", "x"]}`, clusterTestQuery)
	shardEval := func(kind cluster.Kind, free string) string {
		return fmt.Sprintf(`{"query": %q, "db": "corpus", "kind": %q, "shard": 0, "shards": 2, "free": %s}`,
			clusterTestQuery, kind, free)
	}
	for _, tc := range []struct {
		name, path, body string
		h                http.Handler
	}{
		{"local", "/v1/answers", answers, local.Handler()},
		{"routed", "/v1/answers", answers, newLoopbackFront(t).Handler()},
		{"node check", "/v1/shard/eval", shardEval(cluster.KindCheck, `["z", "z"]`), node.Handler()},
		{"node sweep", "/v1/shard/eval", shardEval(cluster.KindSweep, `["x", "x"]`), node.Handler()},
	} {
		rec := do(t, tc.h, "POST", tc.path, tc.body, nil)
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: error envelope: %v\n%s", tc.name, err, rec.Body.String())
		}
		if rec.Code != 400 || er.Code != "bad_request" || !strings.Contains(er.Error, "listed twice") {
			t.Errorf("%s: %d %q (%s), want 400 bad_request", tc.name, rec.Code, er.Code, er.Error)
		}
	}
}

// TestClusterRoutedTrace: a traced request on a routing front returns
// the front's stage breakdown (normalize, plus compile on a plan-cache
// miss) and its slow-log entry carries the same stages. The front
// builds no evaluation index of its own.
func TestClusterRoutedTrace(t *testing.T) {
	front := newLoopbackFront(t)
	h := front.Handler()
	stageNames := func(st []trace.StageStats) []string {
		var names []string
		for _, s := range st {
			names = append(names, s.Stage)
		}
		return names
	}
	var cert certainResponse
	if rec := doTraced(t, h, "POST", "/v1/certain", fmt.Sprintf(`{"query": %q, "db": "corpus"}`, clusterTestQuery), &cert); rec.Code != 200 {
		t.Fatalf("routed certain: %d %s", rec.Code, rec.Body.String())
	}
	var ans answersBody
	if rec := doTraced(t, h, "POST", "/v1/answers", fmt.Sprintf(`{"query": %q, "db": "corpus", "free": ["x"]}`, clusterTestQuery), &ans); rec.Code != 200 {
		t.Fatalf("routed answers: %d %s", rec.Code, rec.Body.String())
	}
	if cert.Trace == nil || ans.Trace == nil {
		t.Fatalf("routed traced response without trace: certain %+v, answers %+v", cert.Trace, ans.Trace)
	}
	// The first request compiled the plan; the second hit the cache.
	if got := strings.Join(stageNames(cert.Trace.Stages), ","); got != "normalize,compile" {
		t.Errorf("routed certain stages = %s, want normalize,compile", got)
	}
	if got := strings.Join(stageNames(ans.Trace.Stages), ","); got != "normalize" {
		t.Errorf("routed answers stages = %s, want normalize", got)
	}
	var slow slowlogResponse
	if rec := do(t, h, "GET", "/debug/slowlog", "", &slow); rec.Code != 200 || len(slow.Entries) != 2 {
		t.Fatalf("slowlog: %d, %d entries, want 2", rec.Code, len(slow.Entries))
	}
	for _, e := range slow.Entries {
		want := cert.Trace.Stages
		if e.Endpoint == "answers" {
			want = ans.Trace.Stages
		}
		if got, w := strings.Join(stageNames(e.Trace), ","), strings.Join(stageNames(want), ","); got != w {
			t.Errorf("%s slow-log stages = %s, response stages %s", e.Endpoint, got, w)
		}
	}
	if n := front.Store().IndexStats().Misses(); n != 0 {
		t.Errorf("routing front built %d local indexes, want 0", n)
	}
}

// shardDownTransport fails every request for one logical shard with the
// retryable taxonomy — a deterministic partial failure no failover can
// absorb (the failure follows the shard, not the node).
type shardDownTransport struct {
	inner cluster.Transport
	shard int
}

func (t *shardDownTransport) Eval(ctx context.Context, node string, req *cluster.EvalRequest) (*cluster.EvalResponse, error) {
	if req.Shard == t.shard {
		return nil, fmt.Errorf("%w: shard %d link down", cluster.ErrUnavailable, req.Shard)
	}
	return t.inner.Eval(ctx, node, req)
}

func (t *shardDownTransport) Ready(ctx context.Context, node string) error {
	return t.inner.Ready(ctx, node)
}

// TestClusterPartialFailureSemantics: a shard that stays unreachable
// degrades an all-false certain request explicitly (X-CQA-Degraded:
// partial-shards, approximate: true) when approximation is allowed,
// fails it closed with 503 shard_unavailable when not, and always
// fails the answers union closed.
func TestClusterPartialFailureSemantics(t *testing.T) {
	node := cluster.NewLocalNode("solo")
	if _, err := node.Store.PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	front := New(Config{
		CacheSize: 64, MaxWorkers: 8,
		ClusterNodes:     []string{"solo"},
		ClusterShards:    4,
		ClusterTransport: &shardDownTransport{inner: cluster.NewLoopback(node), shard: 0},
	})
	if _, err := front.Store().PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	h := front.Handler()

	// Approximation is the server default: the partial scatter concludes
	// false from the survivors, explicitly degraded.
	body := fmt.Sprintf(`{"query": %q, "db": "corpus"}`, clusterTestQuery)
	var resp certainResponse
	rec := do(t, h, "POST", "/v1/certain", body, &resp)
	if rec.Code != 200 || resp.Certain || !resp.Approximate {
		t.Fatalf("partial scatter: %d %+v", rec.Code, resp)
	}
	if got := rec.Header().Get("X-CQA-Degraded"); got != "partial-shards" {
		t.Fatalf("X-CQA-Degraded = %q, want partial-shards", got)
	}
	if resp.Fraction == nil || *resp.Fraction <= 0 || *resp.Fraction >= 1 {
		t.Fatalf("fraction = %v, want in (0,1)", resp.Fraction)
	}

	// Explicitly exact request: fail closed with the 503 taxonomy.
	exact := fmt.Sprintf(`{"query": %q, "db": "corpus", "approximate": false}`, clusterTestQuery)
	rec = do(t, h, "POST", "/v1/certain", exact, nil)
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "shard_unavailable") {
		t.Fatalf("exact partial scatter: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 shard_unavailable without Retry-After")
	}

	// Answers have no sound degraded form: always fail closed.
	ansBody := fmt.Sprintf(`{"query": %q, "db": "corpus", "free": ["x"]}`, clusterTestQuery)
	rec = do(t, h, "POST", "/v1/answers", ansBody, nil)
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "shard_unavailable") {
		t.Fatalf("partial answers union: %d %s", rec.Code, rec.Body.String())
	}
}

// TestShardUnavailable maps a routed evaluation whose shard stays
// unavailable through every retry to the 503 shard_unavailable taxonomy
// entry — a structured error with Retry-After, never a wrong boolean —
// and serves the same request once the node recovers.
func TestShardUnavailable(t *testing.T) {
	defer faultinject.Reset()
	node := cluster.NewLocalNode("solo")
	if _, err := node.Store.PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	front := New(Config{
		CacheSize: 64, MaxWorkers: 8,
		ClusterNodes:     []string{"solo"},
		ClusterShards:    1,
		ClusterTransport: cluster.NewLoopback(node),
	})
	if _, err := front.Store().PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	h := front.Handler()
	// Exactly the router's three attempts fail: fewer than the breaker
	// threshold, so recovery needs no cooldown.
	faultinject.SetWindow("cluster.node.exec", 0, 3, func(int) error { return errors.New("node down") })
	body := fmt.Sprintf(`{"query": %q, "db": "corpus"}`, clusterTestQuery)
	var er errorResponse
	rec := do(t, h, "POST", "/v1/certain", body, nil)
	if rec.Code != 503 {
		t.Fatalf("node down: %d %s, want 503", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "shard_unavailable" {
		t.Fatalf("error envelope = %+v (%v), want shard_unavailable", er, err)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After")
	}
	var cert certainResponse
	if rec := do(t, h, "POST", "/v1/certain", body, &cert); rec.Code != 200 || cert.Certain {
		t.Fatalf("recovered certain: %d %+v", rec.Code, cert)
	}
}

// TestShardedInlineFacts: inline facts have no replicated snapshot to
// route by, so a cluster-routing front evaluates them locally — they
// are answered correctly even with every node unreachable.
func TestShardedInlineFacts(t *testing.T) {
	front := New(Config{
		CacheSize: 64, MaxWorkers: 8,
		ClusterNodes:     []string{"gone"},
		ClusterTransport: cluster.NewLoopback(), // no node answers
	})
	h := front.Handler()
	var cert certainResponse
	rec := do(t, h, "POST", "/v1/certain",
		`{"query": "R(x | y), S(y | z)", "facts": "R(a | b)\nR(a | c)\nS(b | z1)"}`, &cert)
	if rec.Code != 200 {
		t.Fatalf("inline certain on a routing front: %d %s", rec.Code, rec.Body.String())
	}
	if cert.Certain {
		t.Fatalf("inline certain = true, want false (block a may pick c)")
	}
	var ans answersBody
	rec = do(t, h, "POST", "/v1/answers",
		`{"query": "R(x | y), S(y | z)", "facts": "R(a | b)\nS(b | z1)\nR(d | e)", "free": ["x"]}`, &ans)
	if rec.Code != 200 || ans.Count != 1 || ans.Answers[0]["x"] != "a" {
		t.Fatalf("inline answers on a routing front: %d %+v", rec.Code, ans)
	}
	// The same query against a stored database does route, and fails
	// closed with no node to answer.
	if _, err := front.Store().PutFacts("corpus", clusterTestDB); err != nil {
		t.Fatal(err)
	}
	rec = do(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(y | z)", "db": "corpus", "approximate": false}`, nil)
	if rec.Code != 503 {
		t.Fatalf("stored db with no node: %d %s, want 503", rec.Code, rec.Body.String())
	}
}

// TestWALMetricsGauges: with a journal attached, /metrics exposes the
// journal size gauges and they move with mutations.
func TestWALMetricsGauges(t *testing.T) {
	srv := newTestServer()
	l, err := wal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv.Store().SetWAL(l)
	h := srv.Handler()
	if rec := do(t, h, "PUT", "/v1/db/prod", "R(a | b)\n", nil); rec.Code != 200 {
		t.Fatalf("upload: %d", rec.Code)
	}
	rec := do(t, h, "GET", "/metrics", "", nil)
	body := rec.Body.String()
	if !strings.Contains(body, "cqa_wal_records_total 1") {
		t.Errorf("metrics missing cqa_wal_records_total 1:\n%s", body)
	}
	if !strings.Contains(body, "cqa_wal_bytes ") || strings.Contains(body, "cqa_wal_bytes 0\n") {
		t.Errorf("metrics missing a positive cqa_wal_bytes gauge:\n%s", body)
	}

	// No journal, no gauges.
	plain := do(t, newTestServer().Handler(), "GET", "/metrics", "", nil)
	if strings.Contains(plain.Body.String(), "cqa_wal_bytes") {
		t.Error("WAL gauges exposed without a journal attached")
	}
}
