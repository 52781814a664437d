package shard

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/faultinject"
	"cqa/internal/trace"
)

// ErrFailed marks a shard-infrastructure failure: an injected (or, one
// day, remote) index-build or evaluation fault, as opposed to an error
// of the request itself (deadline, budget). The serving layer maps it
// to 503 shard_unavailable — the coordinator surfaces the failure
// rather than merge a partial scatter into a wrong boolean.
var ErrFailed = errors.New("shard: shard failed")

// taskQueueCap bounds each shard worker's task queue. A dispatch that
// finds the queue full (the shard is badly backed up) runs the task
// inline in the caller instead of blocking, so coordinators never
// deadlock behind a straggler.
const taskQueueCap = 1024

// PoolOptions configure a Pool.
type PoolOptions struct {
	// Hedge is the straggler threshold of duplicate dispatch: when a
	// dispatched task has not produced a result after this long, the
	// task is started a second time in a fresh goroutine and the first
	// result wins. Tasks are read-only and idempotent, so the duplicate
	// is always safe. 0 disables hedging.
	Hedge time.Duration
}

// Pool is the in-process shard cluster of one snapshot: N shards, each
// with its own block partition (built lazily on its worker, in the
// background, starting at construction) and a channel worker executing
// evaluation tasks against it. Create with NewPool; a Pool is safe for
// concurrent use. Close when replacing the snapshot — queued tasks
// drain first, and tasks dispatched after Close run inline in the
// caller, so in-flight requests on a swapped-out snapshot stay correct.
type Pool struct {
	db    *db.DB
	n     int
	hedge time.Duration

	mu     sync.RWMutex // guards closed vs. task-channel sends
	closed bool
	wg     sync.WaitGroup

	// building counts shards whose initial index build has not yet
	// finished; the readiness probe fails while it is non-zero.
	building  atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64

	shards []*shardState
}

type shardState struct {
	id   int
	pool *Pool

	tasks  chan func()
	health atomic.Int32 // Health

	buildMu          sync.Mutex
	built            atomic.Bool
	initialBuildDone bool
	// spans holds, per relation of the snapshot's columnar view, the
	// indices of the columnar blocks this shard owns (Of(blockID) ==
	// id). Relations without facts are absent.
	spans     map[string][]int32
	numBlocks int

	evals    atomic.Int64
	failures atomic.Int64
	hist     *trace.Histogram
}

// NewPool builds the shard cluster for the snapshot: n workers start
// immediately and each begins building its shard's block index in the
// background (so a fresh snapshot swap reports Building shards to the
// readiness probe instead of stalling the first request on n builds).
// n < 1 is treated as 1. The caller must not modify d afterwards.
func NewPool(d *db.DB, n int, opt PoolOptions) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{db: d, n: n, hedge: opt.Hedge}
	p.building.Store(int64(n))
	p.shards = make([]*shardState, n)
	for i := range p.shards {
		s := &shardState{
			id:    i,
			pool:  p,
			tasks: make(chan func(), taskQueueCap),
			hist:  trace.NewHistogram(nil),
		}
		p.shards[i] = s
		p.wg.Add(1)
		go s.workerLoop(&p.wg)
		s.tasks <- func() { s.ensureBuilt(nil) } //nolint:errcheck // surfaces per-eval
	}
	return p
}

// Derive builds the pool of an Apply-derived snapshot from the parent's
// pool without re-partitioning the database: every already-built parent
// shard starts built, its partition patched only for the relations the
// change set names (untouched relations alias the parent shard's
// columnar spans). Parent shards whose initial build had not
// finished — or had failed — rebuild in the background against the child
// exactly as a fresh pool would, and the Building gauge reports that
// partial rebuild to the readiness probe. Derive returns nil when the
// parent pool is already closed; the caller falls back to NewPool.
//
// The child must be the result of applying the change set to the parent
// pool's database. Derive only reads the parent, so it is safe to run
// while the parent still serves requests.
func (p *Pool) Derive(child *db.DB, ch *db.ChangeSet) *Pool {
	p.mu.RLock()
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return nil
	}
	np := &Pool{db: child, n: p.n, hedge: p.hedge}
	np.shards = make([]*shardState, p.n)
	col := child.Columnar()
	pending := int64(0)
	for i, ps := range p.shards {
		s := &shardState{
			id:    i,
			pool:  np,
			tasks: make(chan func(), taskQueueCap),
			hist:  trace.NewHistogram(nil),
		}
		np.shards[i] = s
		if !ps.built.Load() {
			pending++
			continue
		}
		spans := maps.Clone(ps.spans)
		if spans == nil {
			spans = make(map[string][]int32)
		}
		count := ps.numBlocks
		for name := range ch.Rels {
			count -= len(spans[name])
			if cr := col.Rel(name); cr != nil {
				spans[name] = ownedSpans(cr, i, np.n)
				count += len(spans[name])
			} else {
				delete(spans, name)
			}
		}
		s.spans = spans
		s.numBlocks = count
		s.initialBuildDone = true
		s.built.Store(true)
		s.health.Store(int32(HealthReady))
	}
	np.building.Store(pending)
	for _, s := range np.shards {
		s := s
		np.wg.Add(1)
		go s.workerLoop(&np.wg)
		if !s.built.Load() {
			s.tasks <- func() { s.ensureBuilt(nil) } //nolint:errcheck // surfaces per-eval
		}
	}
	return np
}

// N returns the number of shards.
func (p *Pool) N() int { return p.n }

// Hedge returns the configured straggler threshold (0 = disabled).
func (p *Pool) Hedge() time.Duration { return p.hedge }

// Building returns the number of shards whose initial index build has
// not yet completed.
func (p *Pool) Building() int64 { return p.building.Load() }

// Close shuts the workers down: queued tasks drain first, then the
// workers exit. Tasks dispatched after Close run inline in the caller's
// goroutine, so a request still holding the pool of a replaced snapshot
// completes correctly. Close is idempotent and safe for concurrent use.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, s := range p.shards {
		close(s.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (s *shardState) workerLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for task := range s.tasks {
		task()
	}
}

// enqueue hands the task to the shard's worker; false means the caller
// must run it inline (the pool is closed or the queue is saturated).
func (p *Pool) enqueue(s *shardState, task func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case s.tasks <- task:
		return true
	default:
		return false
	}
}

// fireHook fires the pool-wide fault point and then the per-shard one,
// so tests can inject a fault into every shard or target exactly one.
func fireHook(base string, id int) error {
	if err := faultinject.Fire(base); err != nil {
		return err
	}
	return faultinject.Fire(base + "." + strconv.Itoa(id))
}

// ensureBuilt builds the shard's span partition on first use. A failed
// build (injected fault) marks the shard unhealthy and is retried by
// the next task, mirroring the snapshot index's retry-on-panic
// semantics; the initial background build counts against the pool's
// Building gauge exactly once, success or failure.
func (s *shardState) ensureBuilt(tr *trace.Tracer) error {
	if s.built.Load() {
		return nil
	}
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	if s.built.Load() {
		return nil
	}
	sp := tr.Begin(trace.StageShardIndex)
	err := s.build()
	sp.End()
	// Health settles before the Building gauge drops, so an observer
	// that saw the gauge reach zero never reads a stale Building state.
	if err != nil {
		s.health.Store(int32(HealthUnhealthy))
	} else {
		s.built.Store(true)
		s.health.Store(int32(HealthReady))
	}
	if !s.initialBuildDone {
		s.initialBuildDone = true
		s.pool.building.Add(-1)
	}
	if err != nil {
		return fmt.Errorf("%w: shard %d index build: %w", ErrFailed, s.id, err)
	}
	return nil
}

// build partitions the snapshot's columnar view: for every relation,
// the indices of the columnar blocks the shard owns (Of(blockID) ==
// id). The blocks themselves are shared with the snapshot — a shard
// index is a view, not a copy.
func (s *shardState) build() error {
	if err := fireHook("shard.index", s.id); err != nil {
		return err
	}
	col := s.pool.db.Columnar()
	spans := make(map[string][]int32, len(col.RelNames()))
	count := 0
	for _, name := range col.RelNames() {
		spans[name] = ownedSpans(col.Rel(name), s.id, s.pool.n)
		count += len(spans[name])
	}
	s.spans = spans
	s.numBlocks = count
	return nil
}

// ownedSpans lists the indices of the relation's columnar blocks that
// shard id of n owns. The slice is non-nil even when the shard owns
// none, so a span-restricted walk over it visits nothing (nil means
// every block there).
func ownedSpans(cr *db.ColRel, id, n int) []int32 {
	sp := []int32{}
	for bi, blk := range cr.Blocks {
		if Of(blk.ID, n) == id {
			sp = append(sp, int32(bi))
		}
	}
	return sp
}

// Task is one shard evaluation: it sees the shard's view and a checker
// forked from the request budget. Tasks must be read-only — hedging may
// run a task twice concurrently.
type Task[T any] func(v *View, chk *evalctx.Checker) (T, error)

type outcome[T any] struct {
	v      T
	err    error
	hedged bool
}

// Do runs fn on the identified shard's worker and returns its result.
// The execution polls a checker forked from chk but bound to ctx, so a
// coordinator can cancel the scatter (early-exit merge) without
// touching the request context, while the step budget stays shared
// across all shards of the request. When the pool hedges and the
// primary execution has not finished within the threshold, a duplicate
// runs in a fresh goroutine and the first result wins. A ctx already
// cancelled (or cancelled while waiting) returns ctx.Err(); the
// abandoned task still drains on the worker and observes the same
// cancelled context.
func Do[T any](ctx context.Context, p *Pool, id int, chk *evalctx.Checker, fn Task[T]) (T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := p.shards[id%len(p.shards)]
	ch := make(chan outcome[T], 2)
	run := func(hedged bool) {
		v, err := exec(p, s, ctx, chk, fn)
		ch <- outcome[T]{v: v, err: err, hedged: hedged}
	}
	if !p.enqueue(s, func() { run(false) }) {
		return exec(p, s, ctx, chk, fn)
	}
	var hedgeC <-chan time.Time
	if p.hedge > 0 {
		t := time.NewTimer(p.hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	for {
		select {
		case out := <-ch:
			if out.hedged {
				p.hedgeWins.Add(1)
			}
			return out.v, out.err
		case <-hedgeC:
			hedgeC = nil
			p.hedges.Add(1)
			go run(true)
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

// exec is one execution of a task on a shard: build-on-demand, the
// shard.eval fault hooks, a per-shard trace span, and the health and
// latency accounting.
func exec[T any](p *Pool, s *shardState, ctx context.Context, chk *evalctx.Checker, fn Task[T]) (T, error) {
	var zero T
	echk := chk.ForkWith(ctx)
	tr := echk.Tracer()
	if err := s.ensureBuilt(tr); err != nil {
		s.failures.Add(1)
		return zero, err
	}
	sp := tr.Begin(trace.StageShard)
	start := time.Now()
	var out T
	err := fireHook("shard.eval", s.id)
	if err != nil {
		err = fmt.Errorf("%w: shard %d evaluation fault: %w", ErrFailed, s.id, err)
	} else {
		out, err = fn(&View{ID: s.id, DB: p.db, s: s}, echk)
	}
	sp.End()
	s.hist.Observe(time.Since(start))
	s.evals.Add(1)
	if err == nil {
		s.health.Store(int32(HealthReady))
		return out, nil
	}
	// The request's own limits tripping on this shard says nothing
	// about the shard; real faults flip it unhealthy until an
	// evaluation succeeds again.
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, evalctx.ErrBudgetExceeded) {
		s.failures.Add(1)
		s.health.Store(int32(HealthUnhealthy))
	}
	return zero, err
}

// ShardStat is the observable state of one shard.
type ShardStat struct {
	ID     int
	Health Health
	// Blocks is the size of the shard's partition (0 until built).
	Blocks   int
	Evals    int64
	Failures int64
	// Hist is the shard's evaluation-latency histogram (shared; read
	// via Snapshot).
	Hist *trace.Histogram
}

// Stats is a point-in-time summary of the pool.
type Stats struct {
	Total     int
	Ready     int
	Building  int
	Unhealthy int
	Hedges    int64
	HedgeWins int64
	Shards    []ShardStat
}

// Stats returns the pool summary plus per-shard detail.
func (p *Pool) Stats() Stats {
	st := Stats{
		Total:     p.n,
		Hedges:    p.hedges.Load(),
		HedgeWins: p.hedgeWins.Load(),
		Shards:    make([]ShardStat, p.n),
	}
	for i, s := range p.shards {
		h := Health(s.health.Load())
		switch h {
		case HealthReady:
			st.Ready++
		case HealthBuilding:
			st.Building++
		default:
			st.Unhealthy++
		}
		blocks := 0
		if s.built.Load() {
			blocks = s.numBlocks
		}
		st.Shards[i] = ShardStat{
			ID:       s.id,
			Health:   h,
			Blocks:   blocks,
			Evals:    s.evals.Load(),
			Failures: s.failures.Load(),
			Hist:     s.hist,
		}
	}
	return st
}
