// Package faultinject is a deterministic fault-injection registry for
// the serving stack. Production code marks hook points with Fire(point);
// tests arm faults at those points — returned errors, panics, or
// injected latency — and exercise the timeout, budget-exhaustion, and
// panic-recovery paths on demand.
//
// The registry is disabled by default and gated behind a single atomic
// load, so an unarmed hook point costs one predictable branch on the
// hot path and allocates nothing. Faults fire deterministically: each
// point counts its calls, and a fault selects the calls it triggers on
// (After / Times), so a test can target exactly the Nth index build or
// the first engine poll.
//
// Hook points currently wired:
//
//	store.index.build   – snapshot evaluation-index construction
//	plancache.compile   – plan compilation on a cache miss
//	evalctx.poll        – engine step checks (eliminator walk, conp
//	                      search, ptime recursion, sampling)
//	store.wal.append    – the journal append of a delta commit (before
//	                      the version publish — the redo-logging window)
//	store.commit        – between the WAL append and the version swap
//	                      (a crash here is what boot replay recovers)
//	cluster.node.exec   – entry of a node-side shard evaluation in the
//	                      remote shard tier (an error models a node-local
//	                      infrastructure fault the router must absorb;
//	                      SimNet owns the network-shaped faults)
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Func is an armed fault. It receives the 1-based call number of its
// hook point and returns the error to inject; it may also panic or
// sleep to model crashes and stalls. A nil return injects nothing for
// that call.
type Func func(call int) error

type fault struct {
	fn Func
	// After skips the first After calls; Times bounds how many calls
	// fire after that (0 = unlimited).
	after, times int
	calls        int
	fired        int
}

var (
	armed atomic.Bool
	mu    sync.Mutex
	table map[string]*fault
)

// Set arms fn at the named hook point, replacing any previous fault
// there, and enables the registry. The fault fires on every call.
func Set(point string, fn Func) { SetWindow(point, 0, 0, fn) }

// SetWindow arms fn at the named point for a deterministic call window:
// the fault is skipped for the first after calls and then fires at most
// times calls (times 0 = unlimited). Call counting starts when the
// fault is armed.
func SetWindow(point string, after, times int, fn Func) {
	mu.Lock()
	defer mu.Unlock()
	if table == nil {
		table = make(map[string]*fault)
	}
	table[point] = &fault{fn: fn, after: after, times: times}
	armed.Store(true)
}

// Clear disarms the named point.
func Clear(point string) {
	mu.Lock()
	defer mu.Unlock()
	delete(table, point)
	if len(table) == 0 {
		armed.Store(false)
	}
}

// Reset disarms every point and disables the registry.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	table = nil
	armed.Store(false)
}

// Calls reports how many times the named point has fired its fault
// since it was armed.
func Calls(point string) int {
	mu.Lock()
	defer mu.Unlock()
	f, ok := table[point]
	if !ok {
		return 0
	}
	return f.fired
}

// Fire is the hook-point entry. When the registry is disarmed (the
// production state) it returns nil after one atomic load. When a fault
// is armed at the point and the call falls inside its window, the
// fault's function runs — it may return the error Fire propagates,
// panic, or sleep.
func Fire(point string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	f, ok := table[point]
	if !ok {
		mu.Unlock()
		return nil
	}
	f.calls++
	call := f.calls
	if call <= f.after || (f.times > 0 && f.fired >= f.times) {
		mu.Unlock()
		return nil
	}
	f.fired++
	fn := f.fn
	mu.Unlock()
	// Run outside the lock: the fault may sleep or panic, and the hook
	// point may be on a concurrent path.
	return fn(call)
}
