// Package evalctx carries cooperative cancellation and resource budgets
// through the evaluation engines. The trichotomy of Koutris & Wijsen
// (PODS 2015, Theorem 1) guarantees coNP-complete queries, whose exact
// evaluation can take exponential time on adversarial instances — and
// even the polynomial engines deserve enforced ceilings under heavy
// traffic. A Checker bundles a context.Context with a step budget and a
// memo-size cap; engines call Step() once per unit of search work and
// unwind with the checker's sticky error when the deadline passes or
// the budget runs out.
//
// Step amortizes its cost: it bumps a local counter and only polls the
// context (and the step budget, and the fault-injection hook) every
// Interval steps, keeping the overhead of a fully-plumbed engine within
// noise of the unplumbed one. A nil *Checker is valid everywhere and
// enforces nothing, so engine entry points that predate cancellation
// simply pass nil.
package evalctx

import (
	"context"
	"errors"
	"sync/atomic"

	"cqa/internal/faultinject"
	"cqa/internal/trace"
)

// ErrBudgetExceeded is the sticky error of an evaluation that ran out
// of its step budget (Limits.MaxSteps). Callers distinguish it from
// context errors to degrade gracefully — e.g. falling back to sampled
// approximation — rather than report a timeout.
var ErrBudgetExceeded = errors.New("evalctx: evaluation step budget exceeded")

// DefaultInterval is the number of Step calls between context polls.
// 1<<10 keeps the check overhead well under 1% of the cheapest step
// (a map probe) while bounding cancellation latency to ~microseconds
// of engine work.
const DefaultInterval = 1 << 10

// Limits are the resource ceilings of one evaluation.
type Limits struct {
	// MaxSteps bounds the total engine steps (shared across Forks);
	// <= 0 means unlimited.
	MaxSteps int64
	// MemoCap bounds the number of memoization entries an engine may
	// retain; <= 0 means unlimited. Exhaustion is not an error: engines
	// stop inserting and keep computing, trading time for bounded memory.
	MemoCap int
	// Interval overrides the steps-per-poll amortization window;
	// <= 0 selects DefaultInterval.
	Interval int
}

// Checker is the per-evaluation cancellation and budget monitor. It is
// single-goroutine: each worker of a pool takes its own Fork, which
// shares the context and the step budget but keeps a private poll
// counter. The zero of *Checker (nil) enforces nothing.
type Checker struct {
	ctx      context.Context
	interval int64
	n        int64         // steps since the last poll
	steps    *atomic.Int64 // total polled steps, shared across Forks
	maxSteps int64
	memoCap  int
	tr       *trace.Tracer // nil unless the request opted into tracing
	err      error
}

// New returns a checker for ctx under the given limits, or nil when
// there is nothing to enforce (a context that can never be cancelled
// and no budgets) — so the unlimited path stays literally free.
func New(ctx context.Context, lim Limits) *Checker {
	return NewTraced(ctx, lim, nil)
}

// NewTraced is New with a stage tracer attached: the checker becomes
// the vehicle that carries the tracer into the engines, which already
// receive a checker everywhere. Unlike New, a non-nil tracer forces a
// non-nil checker even with nothing to enforce — the engines read the
// tracer off the checker they are handed.
func NewTraced(ctx context.Context, lim Limits, tr *trace.Tracer) *Checker {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && lim.MaxSteps <= 0 && lim.MemoCap <= 0 && tr == nil {
		return nil
	}
	interval := int64(lim.Interval)
	if interval <= 0 {
		interval = DefaultInterval
	}
	// A budget below the amortization window would be invisible: the
	// counter flushes only once per window, so an evaluation could spend
	// the whole window before the first budget poll. Tighten the window
	// to the budget so small budgets trip precisely.
	if lim.MaxSteps > 0 && lim.MaxSteps < interval {
		interval = lim.MaxSteps
		if interval < 1 {
			interval = 1
		}
	}
	return &Checker{
		ctx:      ctx,
		interval: interval,
		steps:    new(atomic.Int64),
		maxSteps: lim.MaxSteps,
		memoCap:  lim.MemoCap,
		tr:       tr,
	}
}

// Fork returns a checker for another goroutine of the same evaluation:
// same context, same shared step budget, private poll counter. Fork of
// nil is nil.
func (c *Checker) Fork() *Checker {
	if c == nil {
		return nil
	}
	return &Checker{
		ctx:      c.ctx,
		interval: c.interval,
		steps:    c.steps,
		maxSteps: c.maxSteps,
		memoCap:  c.memoCap,
		tr:       c.tr,
	}
}

// Step records one unit of engine work. Every Interval steps it polls
// the context, the shared step budget, and the "evalctx.poll" fault
// hook; the first failure becomes the checker's sticky error, returned
// from then on. Engines must propagate a non-nil return immediately —
// a cancelled evaluation's boolean is meaningless.
func (c *Checker) Step() error {
	if c == nil {
		return nil
	}
	c.n++
	if c.n < c.interval {
		return nil
	}
	return c.poll()
}

// poll is the slow path of Step, also used directly at coarse-grained
// checkpoints (e.g. once per sampled repair).
func (c *Checker) poll() error {
	if c.err != nil {
		return c.err
	}
	n := c.n
	c.n = 0
	fail := func(err error) error {
		c.err = err
		// Collapse the amortization window so every subsequent Step
		// polls and returns the sticky error immediately.
		c.interval = 0
		return err
	}
	if err := c.ctx.Err(); err != nil {
		return fail(err)
	}
	if err := faultinject.Fire("evalctx.poll"); err != nil {
		return fail(err)
	}
	total := c.steps.Add(n)
	if c.maxSteps > 0 && total > c.maxSteps {
		return fail(ErrBudgetExceeded)
	}
	return nil
}

// Check polls immediately, bypassing the amortization window. Use it at
// checkpoints that are already coarse (a sample, a block branch) where
// the amortized Step would react too slowly.
func (c *Checker) Check() error {
	if c == nil {
		return nil
	}
	c.n++
	return c.poll()
}

// Charge adds n pre-counted steps to the shared budget — the remote
// analogue of Step for work that was executed elsewhere and reported
// back in bulk (a cluster node returns the steps it spent; the router
// charges them here so fan-out and retries cannot multiply a request's
// budget). Unlike Step there is no amortization: the caller already
// paid the round trip, one atomic add is noise. Exceeding the budget
// sets the sticky error exactly as a poll would.
func (c *Checker) Charge(n int64) error {
	if c == nil || n <= 0 {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	total := c.steps.Add(n)
	if c.maxSteps > 0 && total > c.maxSteps {
		c.err = ErrBudgetExceeded
		c.interval = 0
		return c.err
	}
	return nil
}

// Remaining returns the unspent step budget and whether a budget is
// enforced at all. A router forwards the remaining budget — not the
// original — to each remote attempt, so retries and hedges keep drawing
// from the one request budget.
func (c *Checker) Remaining() (int64, bool) {
	if c == nil || c.maxSteps <= 0 {
		return 0, false
	}
	rem := c.maxSteps - c.steps.Load()
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

// Err returns the sticky error: non-nil once a poll has failed.
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

// MemoCap returns the memo-entry ceiling (0 = unlimited).
func (c *Checker) MemoCap() int {
	if c == nil {
		return 0
	}
	return c.memoCap
}

// Tracer returns the stage tracer riding on this checker, or nil. The
// engines call it once per entry point, never per step; a nil result
// composes with the nil-safe trace API so uninstrumented requests pay
// one pointer read.
func (c *Checker) Tracer() *trace.Tracer {
	if c == nil {
		return nil
	}
	return c.tr
}

// Steps returns the total steps accounted so far across all Forks (a
// lower bound: steps since a fork's last poll are not yet added).
func (c *Checker) Steps() int64 {
	if c == nil {
		return 0
	}
	return c.steps.Load()
}
