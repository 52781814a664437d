package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cqa/internal/workload"
)

// doTraced is do with the X-CQA-Trace opt-in header set.
func doTraced(t *testing.T, h http.Handler, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("X-CQA-Trace", "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		decodeBody(t, rec, out)
	}
	return rec
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder, out any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
}

func TestTraceOptIn(t *testing.T) {
	h := newTestServer().Handler()
	body := `{"query": "R(x | y), S(y | z)", "facts": "R(a | b)\nS(b | c)\nS(b | d)"}`

	// With the header, cold: a breakdown with the stages a cold FO
	// evaluation must pass through (normalize, compile, eliminator).
	var traced certainResponse
	if rec := doTraced(t, h, "POST", "/v1/certain", body, &traced); rec.Code != 200 {
		t.Fatalf("traced: %d %s", rec.Code, rec.Body.String())
	}
	if traced.Trace == nil {
		t.Fatal("traced response has no trace")
	}
	stages := make(map[string]bool)
	for _, st := range traced.Trace.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{"normalize", "compile", "eliminator"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q: %+v", want, traced.Trace.Stages)
		}
	}

	// Warm plan: the compile stage disappears (a hit compiles nothing),
	// which is the cache signal a trace is supposed to show.
	var warm certainResponse
	doTraced(t, h, "POST", "/v1/certain", body, &warm)
	for _, st := range warm.Trace.Stages {
		if st.Stage == "compile" {
			t.Errorf("warm-plan trace still records a compile stage: %+v", warm.Trace.Stages)
		}
	}

	// Without the header: no trace in the response.
	var plain certainResponse
	if rec := do(t, h, "POST", "/v1/certain", body, &plain); rec.Code != 200 {
		t.Fatalf("untraced: %d %s", rec.Code, rec.Body.String())
	}
	if plain.Trace != nil {
		t.Fatalf("untraced response carries a trace: %+v", plain.Trace)
	}
}

func TestTraceStoredDBColdIndex(t *testing.T) {
	s := newTestServer()
	h := s.Handler()
	if rec := do(t, h, "PUT", "/v1/db/tr", "R(a | b)\nS(b | c)", nil); rec.Code != 200 {
		t.Fatalf("upload: %d", rec.Code)
	}
	var cold certainResponse
	doTraced(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(y | z)", "db": "tr"}`, &cold)
	if cold.Trace == nil {
		t.Fatal("no trace")
	}
	sawBuild := false
	for _, st := range cold.Trace.Stages {
		if st.Stage == "index-build" {
			sawBuild = true
		}
	}
	if !sawBuild {
		t.Errorf("cold-snapshot trace missing index-build: %+v", cold.Trace.Stages)
	}
	var warm certainResponse
	doTraced(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(y | z)", "db": "tr"}`, &warm)
	for _, st := range warm.Trace.Stages {
		if st.Stage == "index-build" {
			t.Errorf("warm-snapshot trace still records index-build: %+v", warm.Trace.Stages)
		}
	}
}

func TestTraceCoNPStages(t *testing.T) {
	h := newTestServer().Handler()
	var resp certainResponse
	rec := doTraced(t, h, "POST", "/v1/certain",
		`{"query": "R(x | y), S(u | y)", "facts": "R(a | b)\nR(a | c)\nS(d | b)\nS(d | c)"}`, &resp)
	if rec.Code != 200 {
		t.Fatalf("conp: %d %s", rec.Code, rec.Body.String())
	}
	stages := make(map[string]bool)
	for _, st := range resp.Trace.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{"purify", "match", "conp"} {
		if !stages[want] {
			t.Errorf("coNP trace missing stage %q: %+v", want, resp.Trace.Stages)
		}
	}
}

// TestTraceStageSumWithinTotal: the stages of a traced P-class request
// partition its time instead of nesting, so their durations add up to
// no more than the request total. Purification runs inside the ptime
// engine's own span and opens none of its own.
func TestTraceStageSumWithinTotal(t *testing.T) {
	h := newTestServer().Handler()
	d := workload.Q0Instance(rand.New(rand.NewSource(4)), 400, 2)
	if rec := do(t, h, "PUT", "/v1/db/q0", d.String(), nil); rec.Code != 200 {
		t.Fatalf("upload: %d", rec.Code)
	}
	body := fmt.Sprintf(`{"query": %q, "db": "q0"}`, workload.Q0().String())
	do(t, h, "POST", "/v1/certain", body, nil) // warm the plan and the index
	var resp certainResponse
	if rec := doTraced(t, h, "POST", "/v1/certain", body, &resp); rec.Code != 200 {
		t.Fatalf("traced: %d %s", rec.Code, rec.Body.String())
	}
	var sum int64
	sawPTime := false
	for _, st := range resp.Trace.Stages {
		sum += st.Micros
		sawPTime = sawPTime || st.Stage == "ptime"
	}
	if !sawPTime || sum > resp.Trace.TotalUs {
		t.Errorf("stage sum %dus exceeds the %dus total: %+v", sum, resp.Trace.TotalUs, resp.Trace.Stages)
	}
}

func TestPerClassHistograms(t *testing.T) {
	h := newTestServer().Handler()
	do(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(y | z)", "facts": "R(a | b)\nS(b | c)"}`, nil)
	rec := do(t, h, "GET", "/metrics", "", nil)
	body := rec.Body.String()
	for _, frag := range []string{
		`cqa_eval_duration_seconds_bucket{class="fo",le="0.0005"}`,
		`cqa_eval_duration_seconds_bucket{class="fo",le="+Inf"}`,
		`cqa_eval_duration_seconds_count{class="fo"} 1`,
		`cqa_eval_duration_seconds_count{class="conp"} 0`,
		`cqa_slowlog_entries_total`,
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("metrics missing %q", frag)
		}
	}
}

func TestSlowlogRecordsAndBounds(t *testing.T) {
	// Threshold 1ns: every evaluation is "slow". Size 4: the ring must
	// retain only the newest four.
	s := New(Config{CacheSize: 16, MaxWorkers: 4, SlowLogSize: 4, SlowLogThreshold: time.Nanosecond})
	h := s.Handler()
	for i := 0; i < 7; i++ {
		body := `{"query": "R(x | y), S(y | z)", "facts": "R(a | b)\nS(b | c)"}`
		if rec := do(t, h, "POST", "/v1/certain", body, nil); rec.Code != 200 {
			t.Fatalf("certain %d: %d", i, rec.Code)
		}
	}
	var resp slowlogResponse
	if rec := do(t, h, "GET", "/debug/slowlog", "", &resp); rec.Code != 200 {
		t.Fatalf("slowlog: %d", rec.Code)
	}
	if resp.Total != 7 {
		t.Errorf("total = %d, want 7", resp.Total)
	}
	if len(resp.Entries) != 4 {
		t.Fatalf("retained %d entries, want 4 (bounded ring)", len(resp.Entries))
	}
	e := resp.Entries[0]
	if e.Endpoint != "certain" || e.Class != "fo" || e.Engine != "fo" || e.Query == "" {
		t.Errorf("entry = %+v", e)
	}
}

func TestSlowlogDefaultThresholdSkipsFastRequests(t *testing.T) {
	s := newTestServer() // default 100ms threshold
	h := s.Handler()
	do(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(y | z)", "facts": "R(a | b)\nS(b | c)"}`, nil)
	var resp slowlogResponse
	do(t, h, "GET", "/debug/slowlog", "", &resp)
	if resp.Total != 0 || len(resp.Entries) != 0 {
		t.Errorf("sub-millisecond request entered the slow log: %+v", resp)
	}
}

// TestSlowlogEvictionLeaksNoGoroutines pins the eviction design:
// overwriting ring slots spawns nothing, so goroutine count is flat
// even under concurrent recording pressure far past the ring size.
func TestSlowlogEvictionLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	l := newSlowLog(8, time.Nanosecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.record(slowEntry{Endpoint: "certain", dur: time.Millisecond})
				if i%100 == 0 {
					l.snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := l.count(); got != 8*500 {
		t.Fatalf("recorded %d, want %d", got, 8*500)
	}
	if got := len(l.snapshot()); got != 8 {
		t.Fatalf("retained %d, want 8", got)
	}
	// Give any stray goroutine a moment to show up, then compare.
	time.Sleep(10 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d across eviction", before, after)
	}
}

func TestDebugHandler(t *testing.T) {
	s := newTestServer()
	h := s.DebugHandler()
	if rec := do(t, h, "GET", "/debug/pprof/", "", nil); rec.Code != 200 {
		t.Errorf("pprof index: %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/debug/pprof/cmdline", "", nil); rec.Code != 200 {
		t.Errorf("pprof cmdline: %d", rec.Code)
	}
	var resp slowlogResponse
	if rec := do(t, h, "GET", "/debug/slowlog", "", &resp); rec.Code != 200 {
		t.Errorf("debug slowlog: %d", rec.Code)
	}
	// The main handler must NOT expose pprof — only the slow log.
	main := s.Handler()
	if rec := do(t, main, "GET", "/debug/pprof/", "", nil); rec.Code == 200 {
		t.Error("main handler exposes pprof")
	}
}

func TestTraceHeaderVariants(t *testing.T) {
	for _, tc := range []struct {
		val  string
		want bool
	}{
		{"", false}, {"0", false}, {"false", false},
		{"1", true}, {"true", true}, {"yes", true},
	} {
		req := httptest.NewRequest("POST", "/v1/certain", nil)
		if tc.val != "" {
			req.Header.Set("X-CQA-Trace", tc.val)
		}
		if got := traceRequested(req); got != tc.want {
			t.Errorf("traceRequested(%q) = %v, want %v", tc.val, got, tc.want)
		}
	}
}
