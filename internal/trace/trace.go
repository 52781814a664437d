// Package trace is the stage-level observability layer of the
// evaluation engines: a zero-dependency span/event recorder that tells
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
// per-stage aggregates are atomic counters, and the bounded event ring
// packs each span into a single uint64 slot claimed with an atomic
// increment.
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
	// plus, for FO queries, the rewriting and the eliminator.
	StageCompile
	// StageIndexBuild is the snapshot evaluation-index build (the
	// columnar view) on a cold snapshot version.
	StageIndexBuild
	// StagePurify is Lemma 1 purification (and its fixpoint rounds).
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
	// extraction, component factorization, and the per-component exact
	// enumeration or Monte Carlo estimation — for /v1/count and for the
	// degraded estimate of a budget-exhausted coNP decision alike.
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
	// CtrRounds counts fixpoint rounds (purification).
	CtrRounds
	// CtrFacts counts facts touched or removed by the stage.
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
	"branches", "dissolutions", "rounds", "facts", "matches",
	"components", "samples",
}

// String names the counter.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// RingSize is the capacity of the per-tracer event ring (a power of
// two). A request rarely records more than a few dozen spans; the ring
// bounds pathological cases (deep ptime recursions) without growing.
const RingSize = 256

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
	head   atomic.Uint64
	ring   [RingSize]atomic.Uint64
}

// New returns an enabled tracer whose event clock starts now.
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

// End closes the span: its duration is added to the stage aggregate and
// the span is appended to the event ring.
func (sp Span) End() {
	t := sp.t
	if t == nil {
		return
	}
	now := time.Now()
	dur := now.Sub(sp.start)
	agg := &t.stages[sp.stage]
	agg.spans.Add(1)
	agg.nanos.Add(int64(dur))
	for {
		max := agg.maxNanos.Load()
		if int64(dur) <= max || agg.maxNanos.CompareAndSwap(max, int64(dur)) {
			break
		}
	}
	t.record(sp.stage, sp.start.Sub(t.start), dur)
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

// --- bounded event ring ---
//
// Each event packs into one uint64 so that concurrent recording needs
// no locks and readers never observe a torn event:
//
//	bits 56..63  stage
//	bits 28..55  start offset, microseconds (saturating, ~4.5 min)
//	bits  0..27  duration, microseconds (saturating, ~4.5 min)
const (
	microsMask = 1<<28 - 1
)

func packEvent(stage Stage, start, dur time.Duration) uint64 {
	su := uint64(start / time.Microsecond)
	if su > microsMask {
		su = microsMask
	}
	du := uint64(dur / time.Microsecond)
	if du > microsMask {
		du = microsMask
	}
	return uint64(stage)<<56 | su<<28 | du
}

func (t *Tracer) record(stage Stage, start, dur time.Duration) {
	slot := (t.head.Add(1) - 1) % RingSize
	t.ring[slot].Store(packEvent(stage, start, dur))
}

// Event is one recorded span, decoded from the ring.
type Event struct {
	Stage Stage
	// Start is the offset from the tracer's creation; Dur the span
	// length. Both saturate at ~4.5 minutes (28-bit microseconds).
	Start time.Duration
	Dur   time.Duration
}

// Events returns the recorded spans, oldest first, at most RingSize
// (older events are overwritten). Safe to call concurrently with
// recording; a torn read is impossible, though very recent events may
// be missed.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	head := t.head.Load()
	n := head
	if n > RingSize {
		n = RingSize
	}
	out := make([]Event, 0, n)
	for i := uint64(0); i < n; i++ {
		slot := (head - n + i) % RingSize
		raw := t.ring[slot].Load()
		out = append(out, Event{
			Stage: Stage(raw >> 56),
			Start: time.Duration((raw>>28)&microsMask) * time.Microsecond,
			Dur:   time.Duration(raw&microsMask) * time.Microsecond,
		})
	}
	return out
}

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
