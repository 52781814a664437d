package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"cqa/internal/faultinject"
	"cqa/internal/ptime"
	"cqa/internal/workload"
)

// uploadHard publishes an adversarial coNP instance under the name and
// returns a /v1/certain body template for it.
func uploadHard(t *testing.T, h http.Handler, name string, vars, clauses, vals int) {
	t.Helper()
	d := workload.HardInstance(rand.New(rand.NewSource(5)), vars, clauses, vals)
	rec := do(t, h, "PUT", "/v1/db/"+name, d.String()+"\n", nil)
	if rec.Code != 200 {
		t.Fatalf("upload %s: %d %s", name, rec.Code, rec.Body.String())
	}
}

func TestDeadlineReturnsStructuredTimeout(t *testing.T) {
	s := newTestServer()
	h := s.Handler()
	// Sized so the full search takes several times the 100ms deadline:
	// the SAT reduction of an unsatisfiable random 3-CNF at 4.3 clauses
	// per variable, whose search must exhaust (2-3s on a 2-vCPU host).
	// An instance whose cost is the join finishes in milliseconds, and
	// the test would skip instead of bounding anything.
	unsat := workload.SATInstance(workload.RandomCNF(rand.New(rand.NewSource(2)), 34, 146, 3))
	if rec := do(t, h, "PUT", "/v1/db/hard", unsat.String()+"\n", nil); rec.Code != 200 {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	body := `{"query": "R(x | y), S(u | y)", "db": "hard", "engine": "conp",
		"timeoutMs": 100, "approximate": false}`
	// Warm the snapshot index and the plan cache: the latency bound is
	// about cancellation responsiveness of the evaluation itself, not
	// the one-time cold build the deadline does not even cover.
	do(t, h, "POST", "/v1/certain", body, nil)

	before := runtime.NumGoroutine()
	start := time.Now()
	var resp errorResponse
	rec := do(t, h, "POST", "/v1/certain", body, nil)
	elapsed := time.Since(start)
	if rec.Code == 200 {
		t.Skipf("instance solved before the deadline (%v); nothing to bound", elapsed)
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	mustJSON(t, rec.Body.Bytes(), &resp)
	if resp.Code != "deadline_exceeded" {
		t.Errorf("code %q, want deadline_exceeded", resp.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("missing Retry-After on 504")
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("deadline overrun: 100ms deadline returned after %v (bound 150ms)", elapsed)
	}
	if strings.Contains(metricsBody(t, h), "cqa_request_timeouts_total 0") {
		t.Errorf("timeout metric not incremented")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak after timeout: %d before, %d after", before, g)
	}
}

func TestBudgetExhaustionDegradesToSampling(t *testing.T) {
	s := newTestServer()
	h := s.Handler()
	uploadHard(t, h, "hard", 30, 120, 4)
	// Approximate defaults to enabled: exhaustion degrades to sampling.
	var resp certainResponse
	rec := do(t, h, "POST", "/v1/certain",
		`{"query": "R(x | y), S(u | y)", "db": "hard", "engine": "conp", "maxSteps": 50}`, &resp)
	if rec.Code != 200 {
		t.Fatalf("degraded request: %d %s", rec.Code, rec.Body.String())
	}
	if !resp.Approximate || resp.Fraction == nil {
		t.Fatalf("expected approximate response, got %+v", resp)
	}
	if got := rec.Header().Get("X-CQA-Degraded"); got != "sampling" {
		t.Errorf("X-CQA-Degraded = %q", got)
	}
	if !strings.Contains(metricsBody(t, h), "cqa_degraded_answers_total 1") {
		t.Errorf("degraded metric not incremented")
	}

	// Explicitly disabling degradation turns exhaustion into a 422.
	rec = do(t, h, "POST", "/v1/certain",
		`{"query": "R(x | y), S(u | y)", "db": "hard", "engine": "conp", "maxSteps": 50, "approximate": false}`, nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("budget without degradation: %d %s", rec.Code, rec.Body.String())
	}
	var eresp errorResponse
	mustJSON(t, rec.Body.Bytes(), &eresp)
	if eresp.Code != "budget_exhausted" {
		t.Errorf("code %q, want budget_exhausted", eresp.Code)
	}
}

// TestEngineInvariantFailsClosed: a ptime reduction invariant that
// could not be established answers 500 engine_invariant, never a
// verdict and never the 422 of a defective request.
func TestEngineInvariantFailsClosed(t *testing.T) {
	rec := httptest.NewRecorder()
	newTestServer().evalError(rec, fmt.Errorf("%w: no premier Markov cycle in R(x | y)", ptime.ErrInvariant))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eresp errorResponse
	mustJSON(t, rec.Body.Bytes(), &eresp)
	if eresp.Code != "engine_invariant" || !strings.Contains(eresp.Error, "R(x | y)") {
		t.Errorf("error body %+v", eresp)
	}
}

func TestAdmissionShedding(t *testing.T) {
	s := New(Config{CacheSize: 16, MaxWorkers: 2})
	h := s.Handler()
	// Saturate the admission semaphore directly; the next evaluating
	// request must be shed with 429 + Retry-After, while non-limited
	// routes stay reachable.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	defer func() { <-s.sem; <-s.sem }()

	rec := do(t, h, "POST", "/v1/certain",
		`{"query": "R(x | y)", "facts": "R(a | b)\n"}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated: %d %s", rec.Code, rec.Body.String())
	}
	var eresp errorResponse
	mustJSON(t, rec.Body.Bytes(), &eresp)
	if eresp.Code != "overloaded" {
		t.Errorf("code %q, want overloaded", eresp.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("missing Retry-After on 429")
	}
	if rec := do(t, h, "GET", "/livez", "", nil); rec.Code != 200 {
		t.Errorf("livez under saturation: %d", rec.Code)
	}
	// Readiness reports saturation.
	if rec := do(t, h, "GET", "/readyz", "", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz under saturation: %d", rec.Code)
	}
	if !strings.Contains(metricsBody(t, h), "cqa_requests_shed_total 1") {
		t.Errorf("shed metric not incremented")
	}
}

func TestLivenessReadinessAndDraining(t *testing.T) {
	s := newTestServer()
	h := s.Handler()
	for _, path := range []string{"/livez", "/healthz", "/readyz"} {
		if rec := do(t, h, "GET", path, "", nil); rec.Code != 200 {
			t.Errorf("%s: %d", path, rec.Code)
		}
	}
	s.SetDraining(true)
	if rec := do(t, h, "GET", "/livez", "", nil); rec.Code != 200 {
		t.Errorf("livez while draining: %d", rec.Code)
	}
	rec := do(t, h, "GET", "/readyz", "", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", rec.Code)
	}
	var eresp errorResponse
	mustJSON(t, rec.Body.Bytes(), &eresp)
	if eresp.Code != "not_ready" || !strings.Contains(eresp.Error, "draining") {
		t.Errorf("readyz error: %+v", eresp)
	}
	if !strings.Contains(metricsBody(t, h), "cqa_ready 0") {
		t.Errorf("cqa_ready should be 0 while draining")
	}
	s.SetDraining(false)
	if rec := do(t, h, "GET", "/readyz", "", nil); rec.Code != 200 {
		t.Errorf("readyz after draining cleared: %d", rec.Code)
	}
}

func TestFaultInjectionIndexBuildPanic(t *testing.T) {
	defer faultinject.Reset()
	s := newTestServer()
	h := s.Handler()
	uploadHard(t, h, "hard", 5, 10, 2)

	// First touch of the snapshot index blows up: the panic must become
	// a structured 500 and must not poison the snapshot.
	faultinject.SetWindow("store.index.build", 0, 1, func(int) error {
		return fmt.Errorf("injected: index build exploded")
	})
	rec := do(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(u | y)", "db": "hard"}`, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("faulted build: %d %s", rec.Code, rec.Body.String())
	}
	var eresp errorResponse
	mustJSON(t, rec.Body.Bytes(), &eresp)
	if eresp.Code != "internal_panic" {
		t.Errorf("code %q, want internal_panic", eresp.Code)
	}
	if !strings.Contains(metricsBody(t, h), "cqa_panics_recovered_total 1") {
		t.Errorf("panic metric not incremented")
	}

	// The window is spent: the retry rebuilds the index and succeeds.
	rec = do(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(u | y)", "db": "hard"}`, nil)
	if rec.Code != 200 {
		t.Fatalf("retry after faulted build: %d %s", rec.Code, rec.Body.String())
	}
}

func TestFaultInjectionPlanCompile(t *testing.T) {
	defer faultinject.Reset()
	s := newTestServer()
	h := s.Handler()
	faultinject.SetWindow("plancache.compile", 0, 1, func(int) error {
		return fmt.Errorf("injected: compile failed")
	})
	rec := do(t, h, "POST", "/v1/classify", `{"query": "R(x | y), S(y | z)"}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("faulted compile: %d %s", rec.Code, rec.Body.String())
	}
	// Window spent: the same query compiles on retry (never cached the
	// failure).
	rec = do(t, h, "POST", "/v1/classify", `{"query": "R(x | y), S(y | z)"}`, nil)
	if rec.Code != 200 {
		t.Fatalf("retry after faulted compile: %d %s", rec.Code, rec.Body.String())
	}
}

func TestFaultInjectionMidEvalPanic(t *testing.T) {
	defer faultinject.Reset()
	s := newTestServer()
	h := s.Handler()
	uploadHard(t, h, "hard", 30, 120, 4)
	// A panic from deep inside the engine's poll path must be recovered
	// into a structured 500; subsequent requests are unaffected.
	faultinject.SetWindow("evalctx.poll", 0, 1, func(int) error {
		panic("injected: engine panic mid-evaluation")
	})
	rec := do(t, h, "POST", "/v1/certain",
		`{"query": "R(x | y), S(u | y)", "db": "hard", "engine": "conp", "timeoutMs": 5000}`, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("mid-eval panic: %d %s", rec.Code, rec.Body.String())
	}
	var eresp errorResponse
	mustJSON(t, rec.Body.Bytes(), &eresp)
	if eresp.Code != "internal_panic" {
		t.Errorf("code %q, want internal_panic", eresp.Code)
	}
	rec = do(t, h, "POST", "/v1/certain",
		`{"query": "R(x | y), S(u | y)", "db": "hard", "engine": "conp", "timeoutMs": 5000}`, nil)
	if rec.Code != 200 {
		t.Fatalf("request after recovered panic: %d %s", rec.Code, rec.Body.String())
	}
}

func TestFaultInjectionMidEvalError(t *testing.T) {
	defer faultinject.Reset()
	s := newTestServer()
	h := s.Handler()
	uploadHard(t, h, "hard", 30, 120, 4)
	// An error (not panic) surfaced from the poll path flows through the
	// engine's sticky-error unwind and lands as a 422.
	faultinject.SetWindow("evalctx.poll", 0, 1, func(int) error {
		return fmt.Errorf("injected: transient engine fault")
	})
	rec := do(t, h, "POST", "/v1/certain",
		`{"query": "R(x | y), S(u | y)", "db": "hard", "engine": "conp", "timeoutMs": 5000, "approximate": false}`, nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("mid-eval error: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "injected") {
		t.Errorf("injected error not surfaced: %s", rec.Body.String())
	}
}

func metricsBody(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := do(t, h, "GET", "/metrics", "", nil)
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	return rec.Body.String()
}

func mustJSON(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
}
