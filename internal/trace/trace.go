// Package trace is the stage-level observability layer of the
// evaluation engines: a zero-dependency span recorder that tells
// an operator *where* a request spent its time — plan compilation,
// snapshot index build, purification, the eliminator walk, the ptime
// dissolution pipeline, or the coNP repair search — together with the
// per-stage effort counters the engines already maintain (recursion
// steps, memo hits, DPLL nodes and restarts, Lemma 9 branches, Markov
// dissolutions).
//
// The design mirrors evalctx.Checker: a nil *Tracer is valid everywhere
// and records nothing, so every instrumented call site costs one nil
// check on the disabled path and allocates nothing per request. An
// enabled Tracer is safe for concurrent use — the answer-pool workers
// of one request share it — because every write lands in an atomic:
// the per-stage aggregates are atomic counters.
package trace

import (
	"sync/atomic"
	"time"
)

// Stage enumerates the instrumented evaluation stages, in roughly the
// order a request flows through them.
type Stage uint8

const (
	// StageNormalize is query parsing and canonicalization.
	StageNormalize Stage = iota
	// StageCompile is plan compilation: attack-graph classification
	// plus, for FO queries, the compiled elimination order.
	StageCompile
	// StageIndexBuild is the snapshot evaluation-index build (the
	// columnar view) on a cold snapshot version.
	StageIndexBuild
	// StagePurify is the coNP engine's Lemma 1 purification: the
	// fixpoint over the repair-constraint form that the match stage's
	// one join built. The ptime engine purifies inside its own span.
	StagePurify
	// StageMatch is embedding enumeration (the backtracking join)
	// outside an engine's inner loop.
	StageMatch
	// StageEliminator is the compiled FO atom-elimination walk.
	StageEliminator
	// StagePTime is the Theorem 4 dissolution pipeline.
	StagePTime
	// StageCoNP is the DPLL falsifying-repair search.
	StageCoNP
	// StageCount is the #CERTAINTY repair-counting engine: constraint
	// extraction, component factorization, and per component either the
	// coNP exclusion search run to the end (its nodes are the stage's
	// "nodes" counter) or Monte Carlo estimation — for /v1/count and for
	// the degraded estimate of a budget-exhausted coNP decision alike.
	StageCount
	numStages
)

var stageNames = [numStages]string{
	"normalize", "compile", "index-build", "purify", "match",
	"eliminator", "ptime", "conp", "count",
}

// String names the stage as it appears in breakdowns and metrics.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Counter enumerates the per-stage effort counters. Not every counter
// is meaningful for every stage; a stage reports the ones its engine
// maintains.
type Counter uint8

const (
	// CtrSteps counts engine steps (recursion calls, candidate facts).
	CtrSteps Counter = iota
	// CtrMemoHits / CtrMemoMisses count memo-table outcomes.
	CtrMemoHits
	CtrMemoMisses
	// CtrNodes counts DPLL decisions (search nodes).
	CtrNodes
	// CtrRestarts counts DPLL backtracks (failed subtrees).
	CtrRestarts
	// CtrBranches counts Lemma 9 block/fact branches.
	CtrBranches
	// CtrDissolutions counts Markov-cycle dissolutions.
	CtrDissolutions
	// CtrFacts counts facts touched by the stage, or the blocks
	// purification removes.
	CtrFacts
	// CtrMatches counts enumerated embeddings.
	CtrMatches
	// CtrComponents counts independent constraint components factorized
	// by the repair counter.
	CtrComponents
	// CtrSamples counts Monte Carlo repair samples drawn by anytime
	// estimation (oversized counting components, coNP degradation).
	CtrSamples
	numCounters
)

var counterNames = [numCounters]string{
	"steps", "memo_hits", "memo_misses", "nodes", "restarts",
	"branches", "dissolutions", "facts", "matches",
	"components", "samples",
}

// String names the counter.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// stageAgg aggregates all spans of one stage.
type stageAgg struct {
	spans atomic.Int64
	nanos atomic.Int64
	// maxNanos is the longest single span of the stage (CAS-maintained),
	// so fan-out stages expose their straggler without per-span storage.
	maxNanos atomic.Int64
	counters [numCounters]atomic.Int64
}

// Tracer records the spans and counters of one evaluation request.
// The zero of *Tracer (nil) records nothing; create with New.
type Tracer struct {
	start  time.Time
	stages [numStages]stageAgg
}

// New returns an enabled tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{start: time.Now()}
}

// Span is an open interval of one stage. The zero Span (from a nil
// tracer) is valid and End is a no-op on it.
type Span struct {
	t     *Tracer
	stage Stage
	start time.Time
}

// Begin opens a span of the stage. On a nil tracer it returns the zero
// span without reading the clock, so the disabled path costs one
// branch.
func (t *Tracer) Begin(stage Stage) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, stage: stage, start: time.Now()}
}

// End closes the span: its duration is added to the stage aggregate.
func (sp Span) End() {
	t := sp.t
	if t == nil {
		return
	}
	dur := time.Since(sp.start)
	agg := &t.stages[sp.stage]
	agg.spans.Add(1)
	agg.nanos.Add(int64(dur))
	for {
		max := agg.maxNanos.Load()
		if int64(dur) <= max || agg.maxNanos.CompareAndSwap(max, int64(dur)) {
			break
		}
	}
}

// Add accumulates n into the stage's counter. Safe (and free) on a nil
// tracer or with n == 0.
func (t *Tracer) Add(stage Stage, c Counter, n int64) {
	if t == nil || n == 0 {
		return
	}
	t.stages[stage].counters[c].Add(n)
}

// Enabled reports whether the tracer records (false for nil). Use it to
// skip work that only feeds the tracer, like formatting.
func (t *Tracer) Enabled() bool { return t != nil }

// StageStats is the aggregate of one stage in a Breakdown, shaped for
// JSON responses.
type StageStats struct {
	Stage string `json:"stage"`
	// Spans is the number of closed spans of this stage.
	Spans int64 `json:"spans"`
	// Micros is the total duration across those spans.
	Micros int64 `json:"us"`
	// MaxUs is the longest single span of the stage; its gap to
	// Micros/Spans shows one span running long.
	MaxUs int64 `json:"maxUs,omitempty"`
	// Counters holds the non-zero effort counters of the stage.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Breakdown returns the non-empty stage aggregates in stage order. A
// stage appears when it closed at least one span or bumped at least one
// counter. Nil-safe (returns nil).
func (t *Tracer) Breakdown() []StageStats {
	if t == nil {
		return nil
	}
	var out []StageStats
	for s := Stage(0); s < numStages; s++ {
		agg := &t.stages[s]
		st := StageStats{
			Stage:  s.String(),
			Spans:  agg.spans.Load(),
			Micros: agg.nanos.Load() / int64(time.Microsecond),
			MaxUs:  agg.maxNanos.Load() / int64(time.Microsecond),
		}
		for c := Counter(0); c < numCounters; c++ {
			if v := agg.counters[c].Load(); v != 0 {
				if st.Counters == nil {
					st.Counters = make(map[string]int64)
				}
				st.Counters[c.String()] = v
			}
		}
		if st.Spans != 0 || st.Counters != nil {
			out = append(out, st)
		}
	}
	return out
}

// StageMicros returns the total recorded duration of one stage, in
// microseconds. Nil-safe (0).
func (t *Tracer) StageMicros(s Stage) int64 {
	if t == nil {
		return 0
	}
	return t.stages[s].nanos.Load() / int64(time.Microsecond)
}

// Elapsed returns the time since the tracer was created. Nil-safe (0).
func (t *Tracer) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}
