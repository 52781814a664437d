package server

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqa/internal/trace"
)

// metrics holds per-endpoint request and error counters plus the
// hardening counters (sheds, timeouts, recovered panics, degraded
// answers). Labels are the fixed endpoint names passed to instrument,
// so the map is written only through counter(), which is safe for
// concurrent use.
type metrics struct {
	mu       sync.Mutex
	requests map[string]*atomic.Uint64
	errors   map[string]*atomic.Uint64
	inflight atomic.Int64
	// shed counts requests rejected with 429 at the admission gate.
	shed atomic.Uint64
	// timeouts counts evaluations cut short by their deadline (504s).
	timeouts atomic.Uint64
	// panics counts engine panics converted into structured 500s.
	panics atomic.Uint64
	// degraded counts coNP evaluations that fell back to sampling.
	degraded atomic.Uint64
	// mutations counts committed delta writes (POST /v1/db/{name}/facts
	// requests that published or idempotently reached a version).
	mutations atomic.Uint64
	// countExact / countApprox split successful /v1/count requests by
	// whether every component was counted exactly or at least one
	// degraded to Monte Carlo sampling.
	countExact  atomic.Uint64
	countApprox atomic.Uint64
	// countHist is the end-to-end latency histogram of successful
	// /v1/count evaluations (exact and sampled alike).
	countHist *trace.Histogram
	// applyHist is the latency histogram of delta commits, covering
	// parse + group commit + MVCC apply + publish.
	applyHist *trace.Histogram
	// byClass holds one evaluation-latency histogram per complexity
	// class (fo / ptime / conp — the trichotomy makes the class the
	// dominant latency predictor, so it is the one label worth a
	// histogram each). Keys are fixed at construction; Observe is
	// lock-free.
	byClass map[string]*trace.Histogram
}

func newMetrics() *metrics {
	return &metrics{
		requests:  make(map[string]*atomic.Uint64),
		errors:    make(map[string]*atomic.Uint64),
		applyHist: trace.NewHistogram(nil),
		countHist: trace.NewHistogram(nil),
		byClass: map[string]*trace.Histogram{
			"fo":    trace.NewHistogram(nil),
			"ptime": trace.NewHistogram(nil),
			"conp":  trace.NewHistogram(nil),
		},
	}
}

func counter(mu *sync.Mutex, m map[string]*atomic.Uint64, label string) *atomic.Uint64 {
	mu.Lock()
	defer mu.Unlock()
	c, ok := m[label]
	if !ok {
		c = &atomic.Uint64{}
		m[label] = c
	}
	return c
}

// statusRecorder captures the status code a handler writes and whether
// the header went out (after which a panic can no longer be converted
// into a structured 500).
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// instrument wraps a handler with request counting, panic recovery, the
// bounded-admission gate (for evaluating endpoints), and per-request
// logging with latency and the engine used.
//
// Panic recovery converts an engine panic into a structured 500 (when
// the response header has not yet been written) and increments
// cqa_panics_recovered_total — one poisoned request must never take the
// process, or the other in-flight requests, down with it.
//
// Admission is a shedding semaphore: when MaxWorkers requests are
// already evaluating, the request is refused immediately with 429 and a
// Retry-After hint instead of queueing unboundedly behind a possibly
// pathological workload.
func (s *Server) instrument(label string, limited bool, h http.HandlerFunc) http.Handler {
	reqs := counter(&s.metrics.mu, s.metrics.requests, label)
	errs := counter(&s.metrics.mu, s.metrics.errors, label)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panics.Add(1)
				if s.logger != nil {
					s.logger.Printf("panic on %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				}
				if !rec.wrote {
					httpErrorCode(rec, http.StatusInternalServerError, "internal_panic",
						"internal error: the evaluation engine panicked (recovered)")
				} else {
					rec.status = http.StatusInternalServerError
				}
			}
			elapsed := time.Since(start)
			if rec.status >= 400 {
				errs.Add(1)
			}
			if s.logger != nil {
				extra := ""
				if engine := rec.Header().Get("X-CQA-Engine"); engine != "" {
					extra += " engine=" + engine
				}
				if cache := rec.Header().Get("X-CQA-Cache"); cache != "" {
					extra += " plan=" + cache
				}
				s.logger.Printf("%s %s %d %s%s", r.Method, r.URL.Path, rec.status, elapsed.Round(time.Microsecond), extra)
			}
		}()
		if limited {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.metrics.shed.Add(1)
				rec.Header().Set("Retry-After", "1")
				httpErrorCode(rec, http.StatusTooManyRequests, "overloaded",
					"admission capacity reached (%d evaluations in flight); retry later", cap(s.sem))
				return
			}
		}
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		h(rec, r)
	})
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal representation, no exponent for these magnitudes.
func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", b), "0"), ".")
}

// handleMetrics renders the counters in the text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	fmt.Fprintf(&b, "cqa_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	fmt.Fprintf(&b, "cqa_inflight_requests %d\n", s.metrics.inflight.Load()-1) // exclude this request
	fmt.Fprintf(&b, "cqa_requests_shed_total %d\n", s.metrics.shed.Load())
	fmt.Fprintf(&b, "cqa_request_timeouts_total %d\n", s.metrics.timeouts.Load())
	fmt.Fprintf(&b, "cqa_panics_recovered_total %d\n", s.metrics.panics.Load())
	fmt.Fprintf(&b, "cqa_degraded_answers_total %d\n", s.metrics.degraded.Load())
	ready := 1
	if reasons := s.notReadyReasons(); len(reasons) > 0 {
		ready = 0
	}
	fmt.Fprintf(&b, "cqa_ready %d\n", ready)

	s.metrics.mu.Lock()
	labels := make([]string, 0, len(s.metrics.requests))
	for label := range s.metrics.requests {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		fmt.Fprintf(&b, "cqa_requests_total{endpoint=%q} %d\n", label, s.metrics.requests[label].Load())
	}
	for _, label := range labels {
		if n := s.metrics.errors[label].Load(); n > 0 {
			fmt.Fprintf(&b, "cqa_request_errors_total{endpoint=%q} %d\n", label, n)
		}
	}
	s.metrics.mu.Unlock()

	for _, class := range []string{"fo", "ptime", "conp"} {
		h := s.metrics.byClass[class]
		snap := h.Snapshot()
		for i, bound := range snap.Bounds {
			fmt.Fprintf(&b, "cqa_eval_duration_seconds_bucket{class=%q,le=%q} %d\n",
				class, formatBound(bound), snap.Cumulative[i])
		}
		fmt.Fprintf(&b, "cqa_eval_duration_seconds_bucket{class=%q,le=\"+Inf\"} %d\n", class, snap.Inf)
		fmt.Fprintf(&b, "cqa_eval_duration_seconds_sum{class=%q} %g\n", class, snap.SumSeconds)
		fmt.Fprintf(&b, "cqa_eval_duration_seconds_count{class=%q} %d\n", class, snap.Count)
	}
	fmt.Fprintf(&b, "cqa_slowlog_entries_total %d\n", s.slowlog.count())

	st := s.cache.Stats()
	fmt.Fprintf(&b, "cqa_plancache_hits_total %d\n", st.Hits)
	fmt.Fprintf(&b, "cqa_plancache_misses_total %d\n", st.Misses)
	fmt.Fprintf(&b, "cqa_plancache_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(&b, "cqa_plancache_entries %d\n", st.Entries)
	ixst := s.store.IndexStats()
	fmt.Fprintf(&b, "cqa_indexcache_hits_total %d\n", ixst.Hits())
	fmt.Fprintf(&b, "cqa_indexcache_misses_total %d\n", ixst.Misses())
	fmt.Fprintf(&b, "cqa_indexcache_building %d\n", ixst.Building())
	fmt.Fprintf(&b, "cqa_store_databases %d\n", s.store.Len())
	fmt.Fprintf(&b, "cqa_db_mutations_total %d\n", s.metrics.mutations.Load())
	fmt.Fprintf(&b, "cqa_count_exact_total %d\n", s.metrics.countExact.Load())
	fmt.Fprintf(&b, "cqa_count_approx_total %d\n", s.metrics.countApprox.Load())
	ch := s.metrics.countHist.Snapshot()
	for i, bound := range ch.Bounds {
		fmt.Fprintf(&b, "cqa_count_duration_seconds_bucket{le=%q} %d\n",
			formatBound(bound), ch.Cumulative[i])
	}
	fmt.Fprintf(&b, "cqa_count_duration_seconds_bucket{le=\"+Inf\"} %d\n", ch.Inf)
	fmt.Fprintf(&b, "cqa_count_duration_seconds_sum %g\n", ch.SumSeconds)
	fmt.Fprintf(&b, "cqa_count_duration_seconds_count %d\n", ch.Count)
	ah := s.metrics.applyHist.Snapshot()
	for i, bound := range ah.Bounds {
		fmt.Fprintf(&b, "cqa_db_apply_duration_seconds_bucket{le=%q} %d\n",
			formatBound(bound), ah.Cumulative[i])
	}
	fmt.Fprintf(&b, "cqa_db_apply_duration_seconds_bucket{le=\"+Inf\"} %d\n", ah.Inf)
	fmt.Fprintf(&b, "cqa_db_apply_duration_seconds_sum %g\n", ah.SumSeconds)
	fmt.Fprintf(&b, "cqa_db_apply_duration_seconds_count %d\n", ah.Count)

	if ws, ok := s.store.WALStats(); ok {
		fmt.Fprintf(&b, "cqa_wal_bytes %d\n", ws.Bytes)
		fmt.Fprintf(&b, "cqa_wal_records_total %d\n", ws.Records)
	}

	if s.router != nil {
		rst := s.router.Stats()
		fmt.Fprintf(&b, "cqa_cluster_retries_total %d\n", rst.Retries)
		fmt.Fprintf(&b, "cqa_cluster_hedges_total %d\n", rst.Hedges)
		fmt.Fprintf(&b, "cqa_cluster_hedge_wins_total %d\n", rst.HedgeWins)
		for _, ns := range rst.Nodes {
			// 0 closed / 1 half-open / 2 open, matching cluster.BreakerState.
			fmt.Fprintf(&b, "cqa_cluster_breaker_state{node=%q} %d\n", ns.Name, int(ns.Breaker))
			fmt.Fprintf(&b, "cqa_cluster_node_failures_total{node=%q} %d\n", ns.Name, ns.Failures)
			snap := ns.Hist.Snapshot()
			for i, bound := range snap.Bounds {
				fmt.Fprintf(&b, "cqa_cluster_node_latency_seconds_bucket{node=%q,le=%q} %d\n",
					ns.Name, formatBound(bound), snap.Cumulative[i])
			}
			fmt.Fprintf(&b, "cqa_cluster_node_latency_seconds_bucket{node=%q,le=\"+Inf\"} %d\n", ns.Name, snap.Inf)
			fmt.Fprintf(&b, "cqa_cluster_node_latency_seconds_sum{node=%q} %g\n", ns.Name, snap.SumSeconds)
			fmt.Fprintf(&b, "cqa_cluster_node_latency_seconds_count{node=%q} %d\n", ns.Name, snap.Count)
		}
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, b.String())
}
