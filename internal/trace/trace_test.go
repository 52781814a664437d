package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(StageCoNP)
	sp.End()
	tr.Add(StagePTime, CtrBranches, 7)
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if got := tr.Breakdown(); got != nil {
		t.Fatalf("nil tracer breakdown = %v, want nil", got)
	}
	if tr.StageMicros(StageCoNP) != 0 || tr.Elapsed() != 0 {
		t.Fatal("nil tracer reports nonzero time")
	}
}

// TestNilTracerZeroAlloc pins the acceptance criterion that disabled
// tracing allocates nothing: the span/counter path on a nil tracer must
// be branch-only.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(StageEliminator)
		tr.Add(StageEliminator, CtrSteps, 123)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer span+counter path allocates %.1f/op, want 0", allocs)
	}
}

func TestBreakdownAggregates(t *testing.T) {
	tr := New()
	sp := tr.Begin(StageEliminator)
	time.Sleep(time.Millisecond)
	sp.End()
	sp = tr.Begin(StageEliminator)
	sp.End()
	tr.Add(StageEliminator, CtrSteps, 40)
	tr.Add(StageEliminator, CtrSteps, 2)
	tr.Add(StagePTime, CtrDissolutions, 3) // counter-only stage, no span

	bd := tr.Breakdown()
	if len(bd) != 2 {
		t.Fatalf("breakdown has %d stages, want 2: %+v", len(bd), bd)
	}
	elim := bd[0]
	if elim.Stage != "eliminator" || elim.Spans != 2 {
		t.Fatalf("eliminator stage = %+v", elim)
	}
	if elim.Micros < 1000 {
		t.Fatalf("eliminator recorded %dus, want >= 1000", elim.Micros)
	}
	if elim.Counters["steps"] != 42 {
		t.Fatalf("steps counter = %d, want 42", elim.Counters["steps"])
	}
	pt := bd[1]
	if pt.Stage != "ptime" || pt.Spans != 0 || pt.Counters["dissolutions"] != 3 {
		t.Fatalf("ptime stage = %+v", pt)
	}

	// The breakdown must be JSON-encodable for the server response.
	if _, err := json.Marshal(bd); err != nil {
		t.Fatalf("breakdown does not marshal: %v", err)
	}
}

// TestConcurrentRecording hammers one tracer from many goroutines, as
// the answer-pool workers of one request do. Run under -race this also
// proves the aggregates are data-race free.
func TestConcurrentRecording(t *testing.T) {
	tr := New()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Begin(StageMatch)
				tr.Add(StageMatch, CtrMatches, 1)
				sp.End()
				// Interleave readers with writers.
				if i%100 == 0 {
					tr.Breakdown()
				}
			}
		}()
	}
	wg.Wait()
	bd := tr.Breakdown()
	if len(bd) != 1 {
		t.Fatalf("breakdown = %+v", bd)
	}
	if bd[0].Spans != workers*perWorker {
		t.Fatalf("spans = %d, want %d", bd[0].Spans, workers*perWorker)
	}
	if bd[0].Counters["matches"] != workers*perWorker {
		t.Fatalf("matches = %d, want %d", bd[0].Counters["matches"], workers*perWorker)
	}
}

func TestStageAndCounterNames(t *testing.T) {
	for s := Stage(0); s < numStages; s++ {
		if s.String() == "" || s.String() == "unknown" {
			t.Fatalf("stage %d has no name", s)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage must stringify as unknown")
	}
	for c := Counter(0); c < numCounters; c++ {
		if c.String() == "" || c.String() == "unknown" {
			t.Fatalf("counter %d has no name", c)
		}
	}
	if Counter(200).String() != "unknown" {
		t.Fatal("out-of-range counter must stringify as unknown")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // <= 1ms
	h.Observe(2 * time.Millisecond)   // <= 10ms
	h.Observe(5 * time.Millisecond)   // <= 10ms
	h.Observe(50 * time.Millisecond)  // <= 100ms
	h.Observe(3 * time.Second)        // +Inf

	s := h.Snapshot()
	wantCum := []int64{1, 3, 4}
	for i, want := range wantCum {
		if s.Cumulative[i] != want {
			t.Fatalf("bucket le=%g cumulative = %d, want %d", s.Bounds[i], s.Cumulative[i], want)
		}
	}
	if s.Inf != 5 || s.Count != 5 {
		t.Fatalf("inf=%d count=%d, want 5/5", s.Inf, s.Count)
	}
	wantSum := (500*time.Microsecond + 7*time.Millisecond + 50*time.Millisecond + 3*time.Second).Seconds()
	if diff := s.SumSeconds - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %v, want %v", s.SumSeconds, wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	for i := 0; i < 98; i++ {
		h.Observe(500 * time.Microsecond) // <= 1ms
	}
	h.Observe(50 * time.Millisecond) // <= 100ms
	h.Observe(3 * time.Second)       // beyond the last bound

	s := h.Snapshot()
	if got := s.Quantile(0.50); got != 0.001 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := s.Quantile(0.99); got != 0.1 {
		t.Errorf("p99 = %v, want 0.1", got)
	}
	// The overflow bucket has no upper limit: the estimate clamps to the
	// last bound rather than inventing a number.
	if got := s.Quantile(1.0); got != 0.1 {
		t.Errorf("p100 = %v, want the last bound 0.1", got)
	}
	// A tiny q still reports a real bucket (rank floors at 1).
	if got := s.Quantile(0.001); got != 0.001 {
		t.Errorf("p0.1 = %v, want 0.001", got)
	}
	if got := (HistogramSnapshot{Count: 5}).Quantile(0.5); got != 0 {
		t.Errorf("boundless snapshot quantile = %v, want 0", got)
	}
}

func TestHistogramDefaultBucketsAndConcurrency(t *testing.T) {
	h := NewHistogram(nil)
	if len(h.bounds) != len(DefaultLatencyBuckets) {
		t.Fatal("nil bounds must select the default buckets")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(w+1) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 4000 {
		t.Fatalf("count = %d, want 4000", s.Count)
	}
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
}
