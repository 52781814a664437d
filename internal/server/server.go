// Package server exposes the CQA engines as a long-running HTTP/JSON
// service. The split follows the structure of the paper: classification
// and FO rewriting are per-query work (Lemma 3), so the server compiles
// each distinct query once into a core.Plan held in a shared
// plancache.Cache, and the data-side work of a request — evaluating the
// plan against an immutable store.Snapshot — runs on the hot path with
// no attack-graph construction at all.
//
// Endpoints:
//
//	POST   /v1/classify   {"query": q}                       -> class + cache status
//	POST   /v1/certain    {"query": q, "db": name|"facts": t} -> certain answer
//	POST   /v1/count      {"query": q, "db": name|"facts": t} -> repair counts (#CERTAINTY)
//	POST   /v1/answers    {"query": q, "free": [x...], ...}   -> certain answers
//	POST   /v1/rewrite    {"query": q, "dialect": "logic|sql"} -> FO rewriting
//	GET    /v1/catalog                                        -> literature catalog
//	PUT    /v1/db/{name}  (text/plain facts)                  -> publish snapshot
//	POST   /v1/db/{name}/facts {"insert": ..., "delete": ...} -> delta write (next version)
//	GET    /v1/db/{name}, DELETE /v1/db/{name}, GET /v1/db    -> registry ops
//	GET    /healthz, GET /metrics                             -> liveness, counters
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"cqa/internal/catalog"
	"cqa/internal/cluster"
	"cqa/internal/core"
	"cqa/internal/counting"
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/plancache"
	"cqa/internal/ptime"
	"cqa/internal/query"
	"cqa/internal/rewrite"
	"cqa/internal/store"
	"cqa/internal/trace"
)

// maxBodyBytes bounds request bodies (queries and fact uploads).
const maxBodyBytes = 32 << 20

// Operational defaults; see Config for the overrides.
const (
	// DefaultEvalTimeout is the per-request deadline of the evaluating
	// routes (certain/answers) when the request carries no timeoutMs.
	DefaultEvalTimeout = 10 * time.Second
	// DefaultMaxTimeout caps the per-request timeoutMs override: no
	// client can hold an evaluation slot longer than this.
	DefaultMaxTimeout = 2 * time.Minute
	// DefaultMaxSteps is the per-query engine step budget. The coNP
	// search on an adversarial instance is exponential; this bounds it
	// to 20M search nodes, about 1.5s of CPU on a 2-vCPU Xeon (measured
	// on the unsatisfiable 40-variable SAT reduction), after which the
	// request degrades to sampling (approximate: true) or fails with
	// budget_exhausted.
	DefaultMaxSteps = 20_000_000
	// DefaultMemoCap bounds the memoization entries one evaluation may
	// hold (eliminator + ptime memo tables): bounded memory per request.
	DefaultMemoCap = 1 << 20
)

// Config configures a Server.
type Config struct {
	// CacheSize is the plan-cache capacity in plans; <= 0 selects
	// plancache.DefaultCapacity.
	CacheSize int
	// MaxWorkers caps the number of concurrently evaluating requests
	// (classify/certain/answers/rewrite). Excess requests are shed with
	// 429 + Retry-After rather than queued. <= 0 selects 2×GOMAXPROCS.
	MaxWorkers int
	// Logger receives one line per request (method, path, status,
	// latency, engine, cache status); nil disables request logging.
	Logger *log.Logger
	// EvalTimeout is the default evaluation deadline per request; 0
	// selects DefaultEvalTimeout, negative disables the default (a
	// request may still set its own timeoutMs).
	EvalTimeout time.Duration
	// MaxTimeout caps the per-request timeoutMs override; 0 selects
	// DefaultMaxTimeout.
	MaxTimeout time.Duration
	// MaxSteps is the default per-query engine step budget; 0 selects
	// DefaultMaxSteps, negative disables it.
	MaxSteps int64
	// MemoCap is the default per-query memo budget; 0 selects
	// DefaultMemoCap, negative disables it.
	MemoCap int
	// SlowLogSize bounds the in-memory slow-query log; <= 0 selects
	// DefaultSlowLogSize.
	SlowLogSize int
	// SlowLogThreshold is the evaluation latency above which a request
	// is retained in the slow-query log; 0 selects
	// DefaultSlowLogThreshold, negative disables the log.
	SlowLogThreshold time.Duration
	// ShardNode exposes POST /v1/shard/eval: this instance answers
	// per-shard evaluation requests from a cluster router.
	ShardNode bool
	// ClusterNodes, when non-empty, routes stored-database certain and
	// answers requests through a fault-tolerant cluster.Router over
	// these node base URLs instead of evaluating locally. The routing
	// instance still holds the data (uploads are replicated to every
	// node), which it uses for existence and schema validation;
	// inline-facts requests always evaluate locally.
	ClusterNodes []string
	// ClusterShards is the logical partition width of routed work;
	// <= 0 selects the router default (2x the node count).
	ClusterShards int
	// ClusterHedgeDelay enables hedged duplicate dispatch on the
	// router (p99-derived, floored by this value); 0 disables it.
	ClusterHedgeDelay time.Duration
	// ClusterTransport overrides the router transport (tests inject
	// the simulated-fault network); nil selects the HTTP transport.
	ClusterTransport cluster.Transport
}

// Server carries the shared serving state. Create with New; the
// http.Handler is obtained from Handler.
type Server struct {
	cache       *plancache.Cache
	store       *store.Store
	logger      *log.Logger
	sem         chan struct{}
	start       time.Time
	metrics     *metrics
	evalTimeout time.Duration
	maxTimeout  time.Duration
	maxSteps    int64
	memoCap     int
	slowlog     *slowLog
	shardNode   bool
	router      *cluster.Router
	// draining is flipped by graceful shutdown before the listener
	// stops accepting: readiness goes false first, so load balancers
	// stop routing while in-flight requests finish.
	draining atomic.Bool
}

// New returns a server with an empty database registry and a cold plan
// cache.
func New(cfg Config) *Server {
	workers := cfg.MaxWorkers
	if workers <= 0 {
		workers = 2 * runtime.GOMAXPROCS(0)
	}
	evalTimeout := cfg.EvalTimeout
	switch {
	case evalTimeout == 0:
		evalTimeout = DefaultEvalTimeout
	case evalTimeout < 0:
		evalTimeout = 0
	}
	maxTimeout := cfg.MaxTimeout
	if maxTimeout <= 0 {
		maxTimeout = DefaultMaxTimeout
	}
	maxSteps := cfg.MaxSteps
	switch {
	case maxSteps == 0:
		maxSteps = DefaultMaxSteps
	case maxSteps < 0:
		maxSteps = 0
	}
	memoCap := cfg.MemoCap
	switch {
	case memoCap == 0:
		memoCap = DefaultMemoCap
	case memoCap < 0:
		memoCap = 0
	}
	slowThreshold := cfg.SlowLogThreshold
	if slowThreshold == 0 {
		slowThreshold = DefaultSlowLogThreshold
	}
	s := &Server{
		cache:       plancache.New(cfg.CacheSize),
		store:       store.New(),
		logger:      cfg.Logger,
		sem:         make(chan struct{}, workers),
		start:       time.Now(),
		metrics:     newMetrics(),
		evalTimeout: evalTimeout,
		maxTimeout:  maxTimeout,
		maxSteps:    maxSteps,
		memoCap:     memoCap,
		slowlog:     newSlowLog(cfg.SlowLogSize, slowThreshold),
		shardNode:   cfg.ShardNode,
	}
	if len(cfg.ClusterNodes) > 0 {
		tr := cfg.ClusterTransport
		if tr == nil {
			tr = &cluster.HTTPTransport{}
		}
		// The only NewRouter failure modes (no nodes, no transport) are
		// excluded above, so the error path is unreachable here.
		if r, err := cluster.NewRouter(cluster.Config{
			Nodes:      cfg.ClusterNodes,
			Shards:     cfg.ClusterShards,
			Transport:  tr,
			HedgeFloor: cfg.ClusterHedgeDelay,
		}); err == nil {
			s.router = r
		}
	}
	return s
}

// SetDraining flips the drain flag: a draining server reports not-ready
// from /readyz (and cqa_ready 0) while continuing to serve in-flight
// and straggler requests. Graceful shutdown sets it before closing the
// listener.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Store exposes the database registry (used by tests and preloading).
func (s *Server) Store() *store.Store { return s.store }

// Cache exposes the plan cache.
func (s *Server) Cache() *plancache.Cache { return s.cache }

// Handler returns the routed handler with logging and instrumentation.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("healthz", false, s.handleLivez))
	mux.Handle("GET /livez", s.instrument("livez", false, s.handleLivez))
	mux.Handle("GET /readyz", s.instrument("readyz", false, s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
	mux.Handle("GET /v1/catalog", s.instrument("catalog", false, s.handleCatalog))
	mux.Handle("POST /v1/classify", s.instrument("classify", true, s.handleClassify))
	mux.Handle("POST /v1/certain", s.instrument("certain", true, s.handleCertain))
	mux.Handle("POST /v1/count", s.instrument("count", true, s.handleCount))
	mux.Handle("POST /v1/answers", s.instrument("answers", true, s.handleAnswers))
	mux.Handle("POST /v1/rewrite", s.instrument("rewrite", true, s.handleRewrite))
	mux.Handle("PUT /v1/db/{name}", s.instrument("db-put", false, s.handleDBPut))
	mux.Handle("POST /v1/db/{name}/facts", s.instrument("db-mutate", false, s.handleDBMutate))
	mux.Handle("GET /v1/db/{name}", s.instrument("db-get", false, s.handleDBGet))
	mux.Handle("DELETE /v1/db/{name}", s.instrument("db-delete", false, s.handleDBDelete))
	mux.Handle("GET /v1/db", s.instrument("db-list", false, s.handleDBList))
	mux.Handle("GET /debug/slowlog", s.instrument("slowlog", false, s.handleSlowlog))
	if s.shardNode {
		mux.Handle("POST /v1/shard/eval", s.instrument("shard-eval", true, s.handleShardEval))
	}
	return mux
}

// --- request/response shapes ---

type errorResponse struct {
	Error string `json:"error"`
	// Code is a stable machine-readable cause: "bad_request",
	// "deadline_exceeded", "budget_exhausted", "overloaded", "not_ready",
	// "internal_panic", "engine_invariant".
	Code string `json:"code,omitempty"`
}

type classifyRequest struct {
	Query string `json:"query"`
}

type classifyResponse struct {
	Query          string `json:"query"` // normalized form
	Class          string `json:"class"`
	HasCycle       bool   `json:"hasCycle"`
	HasStrongCycle bool   `json:"hasStrongCycle"`
	Cached         bool   `json:"cached"`
}

type certainRequest struct {
	Query  string      `json:"query"`
	DB     string      `json:"db,omitempty"`     // name of an uploaded database
	Facts  string      `json:"facts,omitempty"`  // inline facts, one per line
	Engine string      `json:"engine,omitempty"` // auto (default), fo, ptime, conp
	Free   []query.Var `json:"free,omitempty"`   // /v1/answers only
	// TimeoutMs overrides the server's default evaluation deadline for
	// this request, capped by the server's MaxTimeout.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// MaxSteps overrides the server's default engine step budget (only
	// downwards-or-equal of the server cap, enforced loosely: a request
	// cannot disable the budget).
	MaxSteps int64 `json:"maxSteps,omitempty"`
	// Approximate controls graceful degradation: a budget-exhausted
	// coNP decision falls back to the repair counter's estimate, and a
	// count samples an oversized constraint component. nil means the
	// server default (enabled). Explicitly false turns exhaustion into
	// a budget_exhausted error and an oversized component into
	// component_too_large.
	Approximate *bool `json:"approximate,omitempty"`
	// Samples is the Monte Carlo draw count per estimated constraint
	// component, on /v1/count and on a degraded decision alike; 0
	// selects counting.DefaultSamples.
	Samples int `json:"samples,omitempty"`
}

type dbRef struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
}

type certainResponse struct {
	Query   string `json:"query"`
	Certain bool   `json:"certain"`
	Class   string `json:"class"`
	Engine  string `json:"engine"`
	Cached  bool   `json:"cached"`
	DB      *dbRef `json:"db,omitempty"`
	// Approximate marks a degraded answer: the exact coNP search ran
	// out of its step budget, and Fraction is the satisfying-repair
	// fraction /v1/count reports for the same query, database and
	// samples (an estimate when a constraint component was sampled);
	// Certain is then Fraction >= 1.
	Approximate bool     `json:"approximate,omitempty"`
	Fraction    *float64 `json:"fraction,omitempty"`
	// Trace is the per-stage breakdown; present only when the request
	// carried an X-CQA-Trace header.
	Trace *traceInfo `json:"trace,omitempty"`
}

// countResponse reports a #CERTAINTY repair count. Total is always the
// exact repair count of the instance; Satisfying is present iff the
// count is exact, otherwise Fraction is the anytime estimate and
// Confidence its 95% half-width. The counts are strings: they are
// big integers (a 1M-block instance has ~2^1M repairs) that JSON
// numbers cannot carry.
type countResponse struct {
	Query      string  `json:"query"`
	Satisfying string  `json:"satisfying,omitempty"` // exact count; absent when estimated
	Total      string  `json:"total"`
	Fraction   float64 `json:"fraction"`
	// Confidence is the 95% confidence half-width of an estimated
	// Fraction; present only on the degraded (sampled) path.
	Confidence *float64 `json:"confidence,omitempty"`
	Exact      bool     `json:"exact"`
	Components int      `json:"components"`
	Sampled    int      `json:"sampled,omitempty"` // components estimated by sampling
	Class      string   `json:"class"`
	Cached     bool     `json:"cached"`
	DB         *dbRef   `json:"db,omitempty"`
	// Trace is the per-stage breakdown; present only when the request
	// carried an X-CQA-Trace header.
	Trace *traceInfo `json:"trace,omitempty"`
}

type answersResponse struct {
	Query   string      `json:"query"`
	Free    []query.Var `json:"free"`
	Answers answerTable `json:"answers"`
	Count   int         `json:"count"`
	Class   string      `json:"class"`
	Cached  bool        `json:"cached"`
	DB      *dbRef      `json:"db,omitempty"`
	// Trace is the per-stage breakdown; present only when the request
	// carried an X-CQA-Trace header.
	Trace *traceInfo `json:"trace,omitempty"`
}

// answerTable renders a certain-answer table as the JSON clients read,
// [{"x": "a", "y": "b"}, ...] with keys in sorted order — the bytes
// encoding/json writes for a []map[string]string — straight from the
// rows. Variables and constants go through encoding/json's string
// encoder; the newline it ends each value with is whitespace that the
// compaction of a MarshalJSON result removes.
type answerTable struct {
	free []query.Var
	rows query.Answers
}

func (a answerTable) MarshalJSON() ([]byte, error) {
	cols := query.SortedColumns(a.free)
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	b.WriteByte('[')
	for i, row := range a.rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('{')
		for k, c := range cols {
			if k > 0 {
				b.WriteByte(',')
			}
			if err := enc.Encode(a.free[c]); err != nil {
				return nil, err
			}
			b.WriteByte(':')
			if err := enc.Encode(row[c]); err != nil {
				return nil, err
			}
		}
		b.WriteByte('}')
	}
	b.WriteByte(']')
	return b.Bytes(), nil
}

type rewriteRequest struct {
	Query   string `json:"query"`
	Dialect string `json:"dialect,omitempty"` // "logic" (default) or "sql"
}

type rewriteResponse struct {
	Query     string `json:"query"`
	Class     string `json:"class"`
	Dialect   string `json:"dialect"`
	Rewriting string `json:"rewriting"`
	Cached    bool   `json:"cached"`
}

type catalogEntry struct {
	Name   string `json:"name"`
	Query  string `json:"query"`
	Class  string `json:"class"`
	Source string `json:"source"`
}

// mutateRequest is a delta write: rendered facts (the upload syntax,
// one fact per string). Deletes apply first, then upserts (each entry
// the complete new contents of one block), then inserts.
type mutateRequest struct {
	Insert []string   `json:"insert,omitempty"`
	Delete []string   `json:"delete,omitempty"`
	Upsert [][]string `json:"upsert,omitempty"`
}

type mutateResponse struct {
	DB    snapshotInfo  `json:"db"`
	Stats db.ApplyStats `json:"stats"`
}

type snapshotInfo struct {
	Name      string   `json:"name"`
	Version   uint64   `json:"version"`
	Facts     int      `json:"facts"`
	Blocks    int      `json:"blocks"`
	Relations []string `json:"relations"`
	LoadedAt  string   `json:"loadedAt"`
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func httpErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// statusClientClosedRequest is the de-facto (nginx) status for a
// request whose client went away before the evaluation finished; the
// client never sees it, but logs and error counters do.
const statusClientClosedRequest = 499

// evalError translates an evaluation error into the structured failure
// taxonomy: a passed deadline is a 504 (the request was admitted but
// could not finish in time — retrying with a longer timeoutMs or a
// smaller database may succeed), a spent step budget without
// degradation is a 422 (deterministic: retrying is pointless), a
// cancelled client is logged as 499, a ptime reduction invariant that
// failed is a 500 (the engine's defect), and everything else keeps the
// pre-existing 422 semantics (e.g. forcing the fo engine on a cyclic
// query).
func (s *Server) evalError(w http.ResponseWriter, err error) {
	var reqErr *cluster.RequestError
	var sigErr *core.SignatureError
	var freeErr *core.FreeVarError
	switch {
	case errors.As(err, &reqErr):
		// A cluster node diagnosed the request itself as defective;
		// surface its stable code rather than the transport taxonomy.
		httpErrorCode(w, http.StatusBadRequest, reqErr.Code, "%v", reqErr)
	case errors.As(err, &sigErr):
		// The stored database and the query disagree about a relation's
		// signature: a defect of the request, not of the evaluation.
		httpErrorCode(w, http.StatusBadRequest, "signature_mismatch", "%v", sigErr)
	case errors.As(err, &freeErr):
		// The same defect a routed request gets from the cluster's
		// check: one status and code on both paths.
		httpErrorCode(w, http.StatusBadRequest, "bad_request", "%v", freeErr)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.timeouts.Add(1)
		w.Header().Set("Retry-After", "1")
		httpErrorCode(w, http.StatusGatewayTimeout, "deadline_exceeded",
			"evaluation deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		httpErrorCode(w, statusClientClosedRequest, "client_closed_request",
			"client closed the request: %v", err)
	case cluster.Unavailable(err):
		// After the context cases: a deadline that tripped inside a
		// routed shard is still a 504. Node unavailability is transient
		// — failover and breaker recovery heal it — so a retry is worth
		// hinting.
		w.Header().Set("Retry-After", "1")
		httpErrorCode(w, http.StatusServiceUnavailable, "shard_unavailable",
			"shard failed during evaluation: %v", err)
	case errors.Is(err, evalctx.ErrBudgetExceeded):
		httpErrorCode(w, http.StatusUnprocessableEntity, "budget_exhausted",
			"evaluation step budget exhausted: %v", err)
	case errors.Is(err, ptime.ErrInvariant):
		// The polynomial algorithm met an instance its reduction does
		// not cover: a defect of the engine, not of the request.
		httpErrorCode(w, http.StatusInternalServerError, "engine_invariant",
			"evaluation failed closed: %v", err)
	case errors.Is(err, counting.ErrComponentTooLarge):
		// Only reachable with approximate explicitly false: the default
		// counting contract degrades oversized components to sampling.
		httpErrorCode(w, http.StatusUnprocessableEntity, "component_too_large",
			"exact repair count out of reach: %v", err)
	default:
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// evalContext derives the evaluation context of one request: the
// server's default deadline, overridden by the request's timeoutMs and
// capped by MaxTimeout. The returned cancel must run when the handler
// finishes, releasing the deadline timer.
func (s *Server) evalContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	timeout := s.evalTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	if timeout > s.maxTimeout {
		timeout = s.maxTimeout
	}
	if timeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), timeout)
}

// evalOptions resolves the engine and resource budgets of one request
// against the server defaults.
func (s *Server) evalOptions(w http.ResponseWriter, req certainRequest) (core.Options, bool) {
	opts, ok := parseEngine(w, req.Engine)
	if !ok {
		return core.Options{}, false
	}
	opts.MaxSteps = s.maxSteps
	if req.MaxSteps > 0 && (s.maxSteps <= 0 || req.MaxSteps < s.maxSteps) {
		// Requests may tighten the budget, never widen it.
		opts.MaxSteps = req.MaxSteps
	}
	opts.MemoCap = s.memoCap
	opts.Approximate = req.Approximate == nil || *req.Approximate
	opts.Samples = req.Samples
	return opts, true
}

// decodeJSON decodes a request body capped at maxBodyBytes: a body over
// the cap is 413 body_too_large, any other decode failure 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		if !bodyTooLarge(w, err) {
			httpError(w, http.StatusBadRequest, "malformed JSON body: %v", err)
		}
		return false
	}
	return true
}

// compile resolves the query text through the shared plan cache,
// translating errors to a 400, and records the cache status in the
// response headers so the logging middleware can report it. The
// request's stage tracer (nil when the request did not opt in) shows
// normalization and a miss's compilation in the response breakdown.
func (s *Server) compile(w http.ResponseWriter, text string, tr *trace.Tracer) (*core.Plan, bool, bool) {
	if text == "" {
		httpError(w, http.StatusBadRequest, "missing \"query\"")
		return nil, false, false
	}
	plan, hit, err := s.cache.GetOrCompile(text, tr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false, false
	}
	if hit {
		w.Header().Set("X-CQA-Cache", "hit")
	} else {
		w.Header().Set("X-CQA-Cache", "miss")
	}
	return plan, hit, true
}

// resolveDB produces the evaluation index a request runs against: for
// a stored snapshot (by name) the index cached on the snapshot — built
// once per snapshot version and reused across requests — and for
// inline facts a fresh index over the parsed database. A routed
// request gets no index: the routing front holds a replica of the data
// (uploads are replicated) only to diagnose a missing database or a
// signature mismatch with the same 404/400 as local evaluation, and the
// nodes build the indexes. Exactly one of "db" and "facts" must be set.
func (s *Server) resolveDB(w http.ResponseWriter, req certainRequest, plan *core.Plan, tr *trace.Tracer, routed bool) (*match.Index, *dbRef, bool) {
	switch {
	case req.DB != "" && req.Facts != "":
		httpError(w, http.StatusBadRequest, "set either \"db\" or \"facts\", not both")
		return nil, nil, false
	case req.DB != "":
		snap, ok := s.store.Get(req.DB)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown database %q", req.DB)
			return nil, nil, false
		}
		ref := &dbRef{Name: snap.Name, Version: snap.Version}
		if !routed {
			return snap.IndexTraced(tr), ref, true
		}
		if err := core.CheckSignatures(plan.Query, snap.DB); err != nil {
			s.evalError(w, err)
			return nil, nil, false
		}
		return nil, ref, true
	case req.Facts != "":
		d, err := db.ParseFacts(plan.Query.Schema(), req.Facts)
		if err != nil {
			httpError(w, http.StatusBadRequest, "facts: %v", err)
			return nil, nil, false
		}
		if !d.ConsistentFor() {
			httpError(w, http.StatusBadRequest, "a mode-c relation of the input violates its primary key")
			return nil, nil, false
		}
		return match.NewIndex(d), nil, true
	default:
		httpError(w, http.StatusBadRequest, "missing \"db\" (stored database name) or \"facts\" (inline facts)")
		return nil, nil, false
	}
}

// evalJob is one evaluating endpoint's share of the evaluate pipeline:
// its engine call and its response.
type evalJob struct {
	// endpoint labels the slow-log entry.
	endpoint string
	// routable lets the cluster router run the job: on a routing front
	// a stored-database request then evaluates through s.router and
	// builds no local index. Inline facts always evaluate locally.
	routable bool
	// run is the engine call, against e.ix, or through s.router when
	// e.ix is nil. It returns the engine label of the slow-log entry.
	run func(ctx context.Context, e *evalRun) (engine string, err error)
	// respond writes the success response.
	respond func(e *evalRun)
}

// evalRun is what the pipeline resolved for one request.
type evalRun struct {
	plan *core.Plan
	hit  bool
	opts core.Options
	ix   *match.Index // nil when the request is routed
	ref  *dbRef       // nil for inline facts
	// elapsed and trace are set once run returns.
	elapsed time.Duration
	trace   *traceInfo
}

// evaluate is the pipeline of the evaluating endpoints: compile the
// query, resolve the options and the database, run the job's engine
// call under the request deadline, record the evaluation in the
// latency histograms and the slow log, and either map the error onto
// the failure taxonomy or let the job respond.
func (s *Server) evaluate(w http.ResponseWriter, r *http.Request, req certainRequest, job evalJob) {
	var tr *trace.Tracer
	if traceRequested(r) {
		tr = trace.New()
	}
	// start covers the whole pipeline — normalize/compile, snapshot
	// index resolution, engine — matching what the stage breakdown
	// decomposes and what the slow log should charge.
	start := time.Now()
	plan, hit, ok := s.compile(w, req.Query, tr)
	if !ok {
		return
	}
	opts, ok := s.evalOptions(w, req)
	if !ok {
		return
	}
	opts.Tracer = tr
	routed := job.routable && s.router != nil && req.DB != "" && req.Facts == ""
	ix, ref, ok := s.resolveDB(w, req, plan, tr, routed)
	if !ok {
		return
	}
	ctx, cancel := s.evalContext(r, req.TimeoutMs)
	defer cancel()
	e := &evalRun{plan: plan, hit: hit, opts: opts, ix: ix, ref: ref}
	engine, err := job.run(ctx, e)
	e.elapsed = time.Since(start)
	e.trace = traceJSON(tr, e.elapsed)
	entry := slowEntry{
		Time:     start.UTC().Format(time.RFC3339Nano),
		Endpoint: job.endpoint,
		Query:    plan.Query.String(),
		Class:    classLabel(plan.Class),
		Engine:   engine,
		dur:      e.elapsed,
	}
	if ref != nil {
		entry.DB = ref.Name
	}
	if tr != nil {
		entry.Trace = e.trace.Stages
	}
	if err != nil {
		entry.Error = err.Error()
		s.observeEval(entry)
		s.evalError(w, err)
		return
	}
	s.observeEval(entry)
	job.respond(e)
}

func parseEngine(w http.ResponseWriter, name string) (core.Options, bool) {
	engine, err := core.ParseEngine(name)
	if err != nil {
		httpErrorCode(w, http.StatusBadRequest, "bad_request", "%v", err)
		return core.Options{}, false
	}
	return core.Options{Engine: engine}, true
}

// --- handlers ---

// handleLivez is liveness: the process is up and serving HTTP. It stays
// true while draining (the process is alive; it is readiness that
// flips), and /healthz aliases it for backward compatibility.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //nolint:errcheck
}

// notReadyReasons reports why the server should not receive new
// traffic: it is draining (graceful shutdown flipped readiness before
// closing the listener), a snapshot evaluation-index build is in flight
// (the next request against that snapshot would stall on the build), or
// the admission gate is saturated (a new request would be shed anyway).
func (s *Server) notReadyReasons() []string {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if n := s.store.IndexStats().Building(); n > 0 {
		reasons = append(reasons, fmt.Sprintf("%d snapshot index build(s) in flight", n))
	}
	if len(s.sem) >= cap(s.sem) {
		reasons = append(reasons, fmt.Sprintf("admission saturated (%d in flight)", cap(s.sem)))
	}
	return reasons
}

type readyzResponse struct {
	Status string `json:"status"` // "ready" or "not_ready"
	Error  string `json:"error,omitempty"`
	Code   string `json:"code,omitempty"`
}

// handleReadyz is readiness: whether this instance should receive new
// traffic right now, with the reasons when it should not.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if reasons := s.notReadyReasons(); len(reasons) > 0 {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{
			Status: "not_ready",
			Error:  "not ready: " + strings.Join(reasons, "; "),
			Code:   "not_ready",
		})
		return
	}
	writeJSON(w, http.StatusOK, readyzResponse{Status: "ready"})
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req classifyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	plan, hit, ok := s.compile(w, req.Query, nil)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, classifyResponse{
		Query:          plan.Query.String(),
		Class:          plan.Class.String(),
		HasCycle:       plan.HasCycle,
		HasStrongCycle: plan.HasStrongCycle,
		Cached:         hit,
	})
}

// handleCertain serves CERTAINTY(q). On a routing front, failedShards
// > 0 means the router concluded from a partial scatter (every
// survivor false, the rest unreachable after retries): the response is
// explicitly degraded with X-CQA-Degraded: partial-shards and
// approximate: true — never a silently weaker boolean.
func (s *Server) handleCertain(w http.ResponseWriter, r *http.Request) {
	var req certainRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	var res core.Result
	var failedShards int
	s.evaluate(w, r, req, evalJob{
		endpoint: "certain",
		routable: true,
		run: func(ctx context.Context, e *evalRun) (string, error) {
			var err error
			if e.ix == nil {
				res, failedShards, err = s.router.Certain(ctx, e.plan, req.DB, e.opts)
			} else {
				res, err = e.plan.CertainIndexedCtx(ctx, e.ix, e.opts)
			}
			if err != nil {
				return "", err
			}
			return res.Engine.String(), nil
		},
		respond: func(e *evalRun) {
			resp := certainResponse{
				Query:   e.plan.Query.String(),
				Certain: res.Certain,
				Class:   res.Class.String(),
				Engine:  res.Engine.String(),
				Cached:  e.hit,
				DB:      e.ref,
				Trace:   e.trace,
			}
			if res.Approximate {
				s.metrics.degraded.Add(1)
				frac := res.Fraction
				resp.Approximate = true
				resp.Fraction = &frac
				if failedShards > 0 {
					w.Header().Set("X-CQA-Degraded", "partial-shards")
				} else {
					w.Header().Set("X-CQA-Degraded", "sampling")
				}
			}
			w.Header().Set("X-CQA-Engine", res.Engine.String())
			writeJSON(w, http.StatusOK, resp)
		},
	})
}

// handleCount serves #CERTAINTY: the number of repairs satisfying the
// query, exact while every constraint component fits the exact count
// bound and the step budget, an anytime confidence-interval estimate
// beyond that (unless the request set approximate: false). Counting
// always evaluates locally — the factorized counter is not sharded, and
// a cluster-routing instance holds the replicated data anyway.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	var req certainRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	var res core.CountResult
	s.evaluate(w, r, req, evalJob{
		endpoint: "count",
		run: func(ctx context.Context, e *evalRun) (string, error) {
			var err error
			res, err = e.plan.CountIndexedCtx(ctx, e.ix, e.opts)
			return "count", err
		},
		respond: func(e *evalRun) {
			s.metrics.countHist.Observe(e.elapsed)
			resp := countResponse{
				Query:      e.plan.Query.String(),
				Total:      res.Total.String(),
				Fraction:   res.Fraction,
				Exact:      res.Exact,
				Components: res.Components,
				Sampled:    res.Sampled,
				Class:      res.Class.String(),
				Cached:     e.hit,
				DB:         e.ref,
				Trace:      e.trace,
			}
			if res.Exact {
				s.metrics.countExact.Add(1)
				resp.Satisfying = res.Satisfying.String()
			} else {
				s.metrics.countApprox.Add(1)
				conf := res.Confidence
				resp.Confidence = &conf
				w.Header().Set("X-CQA-Degraded", "count-sampling")
			}
			writeJSON(w, http.StatusOK, resp)
		},
	})
}

// handleAnswers serves the certain answers of a non-Boolean query. The
// routed union merge fails closed — any shard that stays unreachable
// after retries surfaces as 503 shard_unavailable via evalError; there
// is no degraded answer set.
func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	var req certainRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Free) == 0 {
		httpError(w, http.StatusBadRequest, "missing \"free\": the designated free variables")
		return
	}
	var rows query.Answers
	s.evaluate(w, r, req, evalJob{
		endpoint: "answers",
		routable: true,
		run: func(ctx context.Context, e *evalRun) (string, error) {
			var err error
			if e.ix == nil {
				rows, err = s.router.CertainAnswers(ctx, e.plan, req.DB, req.Free, e.opts)
			} else {
				rows, err = e.plan.CertainAnswersIndexedCtx(ctx, req.Free, e.ix, e.opts)
			}
			return e.plan.Engine(e.opts).String(), err
		},
		respond: func(e *evalRun) {
			writeJSON(w, http.StatusOK, answersResponse{
				Query:   e.plan.Query.String(),
				Free:    req.Free,
				Answers: answerTable{free: req.Free, rows: rows},
				Count:   len(rows),
				Class:   e.plan.Class.String(),
				Cached:  e.hit,
				DB:      e.ref,
				Trace:   e.trace,
			})
		},
	})
}

func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	var req rewriteRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	plan, hit, ok := s.compile(w, req.Query, nil)
	if !ok {
		return
	}
	if plan.Elim == nil {
		httpError(w, http.StatusUnprocessableEntity,
			"CERTAINTY(%s) is %s; only FO-classified queries have a consistent first-order rewriting",
			plan.Query, plan.Class)
		return
	}
	dialect := req.Dialect
	if dialect == "" {
		dialect = "logic"
	}
	var text string
	switch dialect {
	case "logic":
		text = rewrite.Format(plan.Elim.Rewriting())
	case "sql":
		// Render from the plan's elimination order instead of
		// re-classifying via rewrite.SQL.
		text = rewrite.SQLFromFormula(plan.Elim.Rewriting())
	default:
		httpError(w, http.StatusBadRequest, "unknown dialect %q (want \"logic\" or \"sql\")", req.Dialect)
		return
	}
	writeJSON(w, http.StatusOK, rewriteResponse{
		Query:     plan.Query.String(),
		Class:     plan.Class.String(),
		Dialect:   dialect,
		Rewriting: text,
		Cached:    hit,
	})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	entries := catalog.Entries()
	out := make([]catalogEntry, len(entries))
	for i, e := range entries {
		out[i] = catalogEntry{Name: e.Name, Query: e.Query, Class: e.Class.String(), Source: e.Source}
	}
	writeJSON(w, http.StatusOK, out)
}

func snapshotJSON(snap *store.Snapshot) snapshotInfo {
	return snapshotInfo{
		Name:      snap.Name,
		Version:   snap.Version,
		Facts:     snap.Facts,
		Blocks:    snap.Blocks,
		Relations: snap.Relations,
		LoadedAt:  snap.LoadedAt.UTC().Format(time.RFC3339Nano),
	}
}

func (s *Server) handleDBPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		if bodyTooLarge(w, err) {
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	snap, err := s.store.PutFacts(name, string(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotJSON(snap))
}

// bodyTooLarge maps a MaxBytesReader trip to the 413 of the error
// taxonomy; it reports whether err was that trip.
func bodyTooLarge(w http.ResponseWriter, err error) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	httpErrorCode(w, http.StatusRequestEntityTooLarge, "body_too_large",
		"request body exceeds the %d byte limit", mbe.Limit)
	return true
}

// handleDBMutate applies a delta write to the named database: the facts
// named in delete leave, each upsert block replaces the full contents of
// its block, and the facts in insert join — in that order, so a request
// can atomically move a fact between blocks. The store group-commits
// concurrent deltas per name; the response carries the version the
// write is visible in (write-then-read requests against that version
// see the mutation immediately) plus the commit's net statistics.
func (s *Server) handleDBMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req mutateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Insert) == 0 && len(req.Delete) == 0 && len(req.Upsert) == 0 {
		httpError(w, http.StatusBadRequest,
			"empty delta: set \"insert\", \"delete\", or \"upsert\"")
		return
	}
	start := time.Now()
	var delta db.Delta
	for _, line := range req.Delete {
		f, err := db.ParseFact(nil, line)
		if err != nil {
			httpError(w, http.StatusBadRequest, "delete: %v", err)
			return
		}
		delta.Delete(f)
	}
	for _, blk := range req.Upsert {
		fs := make([]db.Fact, len(blk))
		for i, line := range blk {
			f, err := db.ParseFact(nil, line)
			if err != nil {
				httpError(w, http.StatusBadRequest, "upsert: %v", err)
				return
			}
			fs[i] = f
		}
		delta.UpsertBlock(fs)
	}
	for _, line := range req.Insert {
		f, err := db.ParseFact(nil, line)
		if err != nil {
			httpError(w, http.StatusBadRequest, "insert: %v", err)
			return
		}
		delta.Insert(f)
	}
	snap, res, err := s.store.ApplyDelta(name, delta)
	switch {
	case errors.Is(err, store.ErrNotFound):
		httpError(w, http.StatusNotFound, "unknown database %q", name)
		return
	case errors.Is(err, store.ErrCommitAborted):
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.mutations.Add(1)
	s.metrics.applyHist.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, mutateResponse{DB: snapshotJSON(snap), Stats: res.Stats})
}

func (s *Server) handleDBGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, ok := s.store.Get(name)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown database %q", name)
		return
	}
	writeJSON(w, http.StatusOK, snapshotJSON(snap))
}

func (s *Server) handleDBDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.store.Delete(name) {
		httpError(w, http.StatusNotFound, "unknown database %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDBList(w http.ResponseWriter, r *http.Request) {
	snaps := s.store.List()
	out := make([]snapshotInfo, len(snaps))
	for i, snap := range snaps {
		out[i] = snapshotJSON(snap)
	}
	writeJSON(w, http.StatusOK, out)
}
