package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cqa/internal/core"
	"cqa/internal/evalctx"
	"cqa/internal/query"
	"cqa/internal/shard"
	"cqa/internal/trace"
)

// Config configures a Router. Zero values select the documented
// defaults; only Nodes and Transport are required.
type Config struct {
	// Nodes are the transport addresses of the replica set. Data is
	// replicated (every node holds every database); the ring only
	// decides which node *prefers* which logical shard.
	Nodes []string
	// Shards is the logical partition width of scattered work; <= 0
	// selects 2×len(Nodes) (spreading failover load across survivors).
	Shards int
	// Transport moves requests; required.
	Transport Transport
	// MaxAttempts bounds tries per shard request (first + retries);
	// <= 0 selects 3.
	MaxAttempts int
	// AttemptTimeout bounds one attempt; <= 0 selects 2s. The request
	// context still bounds the whole.
	AttemptTimeout time.Duration
	// RetryBackoff is the base of the exponential backoff between
	// attempts (full jitter: each wait is uniform in [0, base·2^k));
	// <= 0 selects 10ms.
	RetryBackoff time.Duration
	// HedgeFloor enables hedged second attempts: when an attempt has
	// not answered within max(HedgeFloor, p99 of the fastest replica's
	// latency), a duplicate races on another node and the first answer
	// wins. 0 disables hedging.
	HedgeFloor time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// node's breaker; <= 0 selects 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before going
	// half-open; <= 0 selects 2s.
	BreakerCooldown time.Duration
	// ProbeTimeout bounds the half-open readiness probe; <= 0 selects
	// 250ms.
	ProbeTimeout time.Duration
	// Seed seeds the jitter RNG (deterministic backoff schedules in
	// tests); 0 selects 1.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2 * len(c.Nodes)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// hedgeMinSamples is how many latency observations a node needs before
// its histogram participates in the p99-derived hedge delay; below it
// the configured HedgeFloor applies unmodified.
const hedgeMinSamples = 20

// vnodesPerNode is the virtual-node multiplicity on the consistent-hash
// ring: enough that shard→node preference lists spread failover load,
// cheap enough to precompute per router.
const vnodesPerNode = 32

type nodeState struct {
	name     string
	br       *breaker
	hist     *trace.Histogram
	failures atomic.Int64
}

// Router is the fault-tolerant coordinator of the remote shard tier.
// It scatters a plan's work over the logical shards, routes each shard
// request along its consistent-hash preference list of nodes, and owns
// every client-side robustness mechanism: retries with exponential
// backoff and full jitter, per-attempt timeouts, hedged duplicates,
// per-node circuit breakers, and the partial-failure merge semantics.
// Safe for concurrent use.
type Router struct {
	cfg   Config
	tr    Transport
	nodes []*nodeState
	prefs [][]*nodeState // per logical shard, ring-ordered distinct nodes

	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRouter validates cfg and builds the shard→node preference lists.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: router needs at least one node")
	}
	if cfg.Transport == nil {
		return nil, errors.New("cluster: router needs a transport")
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg: cfg,
		tr:  cfg.Transport,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, name := range cfg.Nodes {
		r.nodes = append(r.nodes, &nodeState{
			name: name,
			br:   &breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown},
			hist: trace.NewHistogram(nil),
		})
	}
	r.prefs = buildPrefs(r.nodes, cfg.Shards)
	return r, nil
}

// Shards returns the logical partition width.
func (r *Router) Shards() int { return r.cfg.Shards }

// buildPrefs places vnodesPerNode points per node on a 64-bit hash
// ring and, for each logical shard, walks the ring from the shard's
// hash collecting distinct nodes: element 0 is the shard's home,
// the rest its failover order. Pure function of the node names and
// width — every router over the same topology routes identically.
func buildPrefs(nodes []*nodeState, shards int) [][]*nodeState {
	type point struct {
		h  uint64
		ns *nodeState
	}
	pts := make([]point, 0, len(nodes)*vnodesPerNode)
	for _, ns := range nodes {
		for v := 0; v < vnodesPerNode; v++ {
			pts = append(pts, point{hash64(ns.name + "#" + strconv.Itoa(v)), ns})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].ns.name < pts[j].ns.name
	})
	prefs := make([][]*nodeState, shards)
	for s := range prefs {
		h := hash64("shard/" + strconv.Itoa(s))
		start := sort.Search(len(pts), func(i int) bool { return pts[i].h >= h }) % len(pts)
		seen := make(map[*nodeState]bool, len(nodes))
		order := make([]*nodeState, 0, len(nodes))
		for i := 0; len(order) < len(nodes) && i < len(pts); i++ {
			ns := pts[(start+i)%len(pts)].ns
			if !seen[ns] {
				seen[ns] = true
				order = append(order, ns)
			}
		}
		prefs[s] = order
	}
	return prefs
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV-1a has weak avalanche on short sequential keys ("shard/0",
	// "shard/1", ...): their hashes differ by small multiples of the
	// FNV prime and cluster on one arc of the ring, homing every shard
	// on one node. A splitmix64-style finalizer restores uniformity.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Certain decides CERTAINTY for the plan over the named replicated
// database. FO-scatterable plans fan out over every logical shard and
// merge with early-exit OR semantics; other engines route the whole
// decision to the shard owning the plan key. failedShards reports the
// partial-failure degradation: 0 means the verdict is exact; > 0 means
// that many shards stayed unreachable after retries, every surviving
// shard reported false, and opts.Approximate permitted concluding from
// the survivors — the Result then carries Approximate=true and
// Fraction = surviving/total. A true verdict is always exact (any
// shard's true is definitive). Without opts.Approximate a partial
// scatter fails closed with an error satisfying Unavailable, which the
// serving layer maps to 503 shard_unavailable — never a silently wrong
// boolean.
func (r *Router) Certain(ctx context.Context, plan *core.Plan, dbName string, opts core.Options) (core.Result, int, error) {
	chk := evalctx.New(ctx, evalctx.Limits{MaxSteps: opts.MaxSteps, MemoCap: opts.MemoCap})
	engine := plan.Engine(opts)
	base := EvalRequest{
		Query:       plan.Key(),
		DB:          dbName,
		Shards:      r.cfg.Shards,
		Engine:      engine.String(),
		MemoCap:     opts.MemoCap,
		Approximate: opts.Approximate,
		Samples:     opts.Samples,
	}
	if plan.ScatterableFO(opts) {
		base.Kind = KindBool
		return r.scatterBool(ctx, chk, plan, engine, opts, base)
	}
	base.Kind = KindSingle
	base.Shard = shard.Of(plan.Key(), r.cfg.Shards)
	resp, err := r.do(ctx, chk, base)
	if err != nil {
		return core.Result{}, 0, err
	}
	return core.Result{
		Certain:     resp.Certain,
		Class:       plan.Class,
		Engine:      engine,
		Approximate: resp.Approximate,
		Fraction:    resp.Fraction,
	}, 0, nil
}

func (r *Router) scatterBool(ctx context.Context, chk *evalctx.Checker, plan *core.Plan, engine core.Engine, opts core.Options, base EvalRequest) (core.Result, int, error) {
	n := r.cfg.Shards
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		id   int
		resp *EvalResponse
		err  error
	}
	ch := make(chan res, n)
	for id := 0; id < n; id++ {
		go func(id int) {
			req := base
			req.Shard = id
			// Each scatter goroutine forks the request checker: shared
			// step budget, private sticky error.
			resp, err := r.do(cctx, chk.Fork(), req)
			ch <- res{id: id, resp: resp, err: err}
		}(id)
	}
	failed := 0
	firstID, firstErr := n, error(nil)
	allUnavailable := true
	for i := 0; i < n; i++ {
		out := <-ch
		if out.err == nil {
			if out.resp.Certain {
				// Any shard's true is definitive — the top level is an
				// existential — so a partial scatter can still conclude
				// exactly. Cancel the stragglers and return.
				cancel()
				return core.Result{Certain: true, Class: plan.Class, Engine: engine}, 0, nil
			}
			continue
		}
		failed++
		if !Unavailable(out.err) {
			allUnavailable = false
		}
		if out.id < firstID {
			firstID, firstErr = out.id, out.err
		}
	}
	if failed == 0 {
		return core.Result{Certain: false, Class: plan.Class, Engine: engine}, 0, nil
	}
	// Every surviving shard reported false but some shards stayed
	// unreachable: the false verdict is unproven. Degrade explicitly
	// when the request allows approximation and every failure was
	// infrastructure (a budget or deadline error is the request's own
	// and must surface); otherwise fail closed with the lowest shard's
	// error — deterministic under deterministic faults.
	if opts.Approximate && allUnavailable && failed < n {
		return core.Result{
			Certain:     false,
			Class:       plan.Class,
			Engine:      engine,
			Approximate: true,
			Fraction:    float64(n-failed) / float64(n),
		}, failed, nil
	}
	return core.Result{}, 0, firstErr
}

// CertainAnswers computes the certain answers for the plan's free
// variables over the named replicated database. Sweepable FO plans
// scatter a batched columnar sweep; everything else scatters candidate
// checks by row ownership. The merge is a set union, so it fails
// closed: any shard that stays unreachable after retries, or answers
// with a row that is not one column per free variable, fails the
// request (a partial union would silently drop answers — there is no
// sound degraded answer set). The shards' answer sets are disjoint, so
// the union is their concatenation, sorted into the answer order.
func (r *Router) CertainAnswers(ctx context.Context, plan *core.Plan, dbName string, free []query.Var, opts core.Options) (query.Answers, error) {
	if err := checkFree(plan, free); err != nil {
		return nil, err
	}
	chk := evalctx.New(ctx, evalctx.Limits{MaxSteps: opts.MaxSteps, MemoCap: opts.MemoCap})
	base := EvalRequest{
		Query:       plan.Key(),
		DB:          dbName,
		Shards:      r.cfg.Shards,
		Engine:      plan.Engine(opts).String(),
		MemoCap:     opts.MemoCap,
		Approximate: opts.Approximate,
		Samples:     opts.Samples,
		Free:        free,
	}
	if plan.ScatterableFO(opts) && plan.Elim.SweepableFree(free) {
		base.Kind = KindSweep
	} else {
		base.Kind = KindCheck
	}
	n := r.cfg.Shards
	parts := make([]query.Answers, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			req := base
			req.Shard = id
			resp, err := r.do(ctx, chk.Fork(), req)
			if err != nil {
				errs[id] = err
				return
			}
			parts[id] = resp.Answers
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out query.Answers
	for id, part := range parts {
		for _, row := range part {
			if len(row) != len(free) {
				return nil, fmt.Errorf("%w: shard %d answered a row of %d columns for %d free variables",
					ErrUnavailable, id, len(row), len(free))
			}
		}
		out = append(out, part...)
	}
	out.Sort(free)
	return out, nil
}

// do executes one shard request with the full client-side fault
// tolerance: up to MaxAttempts tries along the shard's preference
// list, exponential backoff with full jitter between tries, the
// remaining request budget re-granted per attempt, remote steps
// charged back on success, and permanent errors (the request's own
// context or budget, a node-diagnosed request defect) returned
// immediately.
func (r *Router) do(ctx context.Context, chk *evalctx.Checker, req EvalRequest) (*EvalResponse, error) {
	prefs := r.prefs[req.Shard%len(r.prefs)]
	backoff := r.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			if !sleepCtx(ctx, r.jitter(backoff)) {
				return nil, ctx.Err()
			}
			backoff *= 2
		}
		if err := chk.Check(); err != nil {
			return nil, err
		}
		if rem, ok := chk.Remaining(); ok {
			if rem <= 0 {
				return nil, evalctx.ErrBudgetExceeded
			}
			req.MaxSteps = rem
		}
		resp, err := r.attempt(ctx, req, prefs, attempt)
		if err == nil {
			// Charge the remotely spent steps against the shared budget.
			// A trip here does not invalidate THIS response — the node
			// already finished it (possibly degrading on its own, which
			// legitimately runs a little past the grant) — but it
			// poisons the shared counter, so the scatter's remaining
			// shards stop at their next poll.
			chk.Charge(resp.Steps) //nolint:errcheck // see above
			return resp, nil
		}
		if permanent(ctx, err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: shard %d: %d attempts exhausted: %w",
		ErrUnavailable, req.Shard, r.cfg.MaxAttempts, lastErr)
}

// attempt is one try of one shard request: pick the first admissible
// node from the preference list (rotated by the attempt number, so
// retries naturally fail over), run it under the per-attempt timeout,
// and — when hedging is enabled — race a duplicate on a different node
// once the p99-derived delay elapses. The first success wins and
// cancels the loser; breaker and latency accounting attribute outcomes
// to nodes only while the race is undecided and the request is alive.
func (r *Router) attempt(ctx context.Context, req EvalRequest, prefs []*nodeState, attempt int) (*EvalResponse, error) {
	primary := r.pick(ctx, prefs, attempt, nil)
	if primary == nil {
		return nil, fmt.Errorf("%w: shard %d: no node admissible (breakers open)", ErrUnavailable, req.Shard)
	}
	actx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	defer cancel()
	type res struct {
		resp   *EvalResponse
		err    error
		hedged bool
	}
	ch := make(chan res, 2)
	var decided atomic.Bool
	launch := func(ns *nodeState, hedged bool) {
		start := time.Now()
		rq := req
		resp, err := r.tr.Eval(actx, ns.name, &rq)
		if err == nil {
			ns.hist.Observe(time.Since(start))
			ns.br.success()
		} else if decided.Load() || ctx.Err() != nil || !nodeFault(err) {
			// Not the node's fault (or not attributable: we cancelled
			// the attempt ourselves). Free a half-open trial slot so
			// the breaker can probe again.
			ns.br.abandon()
		} else {
			ns.failures.Add(1)
			ns.br.failure(time.Now())
		}
		ch <- res{resp: resp, err: err, hedged: hedged}
	}
	go launch(primary, false)
	var hedgeC <-chan time.Time
	if d := r.hedgeDelay(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	outstanding := 1
	var firstErr error
	for outstanding > 0 {
		select {
		case out := <-ch:
			outstanding--
			if out.err == nil {
				decided.Store(true)
				cancel()
				if out.hedged {
					r.hedgeWins.Add(1)
				}
				return out.resp, nil
			}
			if permanent(ctx, out.err) {
				decided.Store(true)
				cancel()
				return nil, out.err
			}
			if firstErr == nil {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			if second := r.pick(ctx, prefs, attempt+1, primary); second != nil {
				r.hedges.Add(1)
				outstanding++
				go launch(second, true)
			}
		}
	}
	decided.Store(true)
	return nil, firstErr
}

// pick returns the first admissible node of the preference list,
// starting at offset start (so retries and hedges rotate away from the
// last choice) and skipping exclude and every node whose breaker
// rejects. A half-open breaker admits only after a fresh /readyz probe
// succeeds.
func (r *Router) pick(ctx context.Context, prefs []*nodeState, start int, exclude *nodeState) *nodeState {
	for i := 0; i < len(prefs); i++ {
		ns := prefs[(start+i)%len(prefs)]
		if ns == exclude {
			continue
		}
		ok, probe := ns.br.acquire(time.Now())
		if !ok {
			continue
		}
		if probe {
			pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
			err := r.tr.Ready(pctx, ns.name)
			cancel()
			if err != nil {
				ns.br.probeFailed(time.Now())
				continue
			}
		}
		return ns
	}
	return nil
}

// hedgeDelay derives the hedging threshold: the p99 of the fastest
// replica's observed latency — "how long 99% of healthy answers take"
// — floored by the configured HedgeFloor and capped at half the
// attempt timeout (a hedge that cannot finish is noise). Until any
// node has hedgeMinSamples observations the floor applies unmodified.
// Returns 0 (hedging disabled) when no HedgeFloor is configured.
func (r *Router) hedgeDelay() time.Duration {
	floor := r.cfg.HedgeFloor
	if floor <= 0 {
		return 0
	}
	best := time.Duration(0)
	for _, ns := range r.nodes {
		snap := ns.hist.Snapshot()
		if snap.Count < hedgeMinSamples {
			continue
		}
		d := time.Duration(snap.Quantile(0.99) * float64(time.Second))
		if d > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	d := floor
	if best > d {
		d = best
	}
	if max := r.cfg.AttemptTimeout / 2; d > max {
		d = max
	}
	return d
}

// jitter draws a full-jitter wait: uniform in [0, d].
func (r *Router) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.rng.Int63n(int64(d) + 1))
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// permanent classifies an attempt error: true means retrying cannot
// help — the request's own context died, its budget is spent, or a
// node diagnosed the request itself as defective. An attempt-level
// timeout with a live parent context is retryable (and a node fault).
func permanent(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return true
	}
	if errors.Is(err, evalctx.ErrBudgetExceeded) {
		return true
	}
	var re *RequestError
	return errors.As(err, &re)
}

// nodeFault reports whether an attempt error indicts the node for
// breaker purposes: infrastructure unavailability or an attempt
// timeout. Request-level errors (budget, defects) say nothing about
// the node's health.
func nodeFault(err error) bool {
	if Unavailable(err) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// NodeStats is the observable state of one routed node.
type NodeStats struct {
	Name     string
	Breaker  BreakerState
	Failures int64
	// Hist is the node's attempt-latency histogram (successes only);
	// shared, read via Snapshot.
	Hist *trace.Histogram
}

// RouterStats is a point-in-time summary for metrics.
type RouterStats struct {
	Retries   int64
	Hedges    int64
	HedgeWins int64
	Nodes     []NodeStats
}

// Stats snapshots the router's counters and per-node state.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Retries:   r.retries.Load(),
		Hedges:    r.hedges.Load(),
		HedgeWins: r.hedgeWins.Load(),
		Nodes:     make([]NodeStats, len(r.nodes)),
	}
	for i, ns := range r.nodes {
		st.Nodes[i] = NodeStats{
			Name:     ns.name,
			Breaker:  ns.br.current(),
			Failures: ns.failures.Load(),
			Hist:     ns.hist,
		}
	}
	return st
}
