//go:build !race

// The zero-allocation pins of the interned hot path. Excluded under
// the race detector, whose instrumentation inserts allocations the
// production build does not perform.

package rewrite

import (
	"runtime"
	"testing"

	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// TestWarmCertainZeroAlloc pins the tentpole property: a warm Boolean
// FO evaluation over the columnar view performs no allocation. The
// evaluation state (slot valuation, undo stack, memo arena) lives in
// the Eliminator's atomic cache slot, which holds a strong reference —
// a GC between runs must not cost the pin either.
func TestWarmCertainZeroAlloc(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	d := factsDB(t, `
		R(a | b)
		R(a | c)
		R(d | b)
		R(e | q)
		S(b | t)
		S(c | t)
		S(b | u)
	`)
	ix := match.NewIndex(d)
	el.CertainChecked(ix, nil, nil) // warm: build columnar view, prog, eval state
	runtime.GC()                    // the cache must survive a collection (strong ref, not sync.Pool)
	if allocs := testing.AllocsPerRun(500, func() { el.CertainChecked(ix, nil, nil) }); allocs != 0 {
		t.Fatalf("warm FO Certain allocates %.1f/op, want 0", allocs)
	}
}

// TestSweepSpansZeroAlloc pins the batched answers kernel: sweeping
// every block of the top relation into a reused answer table allocates
// nothing once warm.
func TestSweepSpansZeroAlloc(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	d := factsDB(t, `
		R(a | b)
		R(a | c)
		R(d | b)
		R(e | q)
		S(b | t)
		S(c | t)
	`)
	ix := match.NewIndex(d)
	free := []query.Var{"x"}
	tab, err := el.SweepSpans(ix, nil, free, nil, nil)
	if err != nil {
		t.Fatalf("SweepSpans: %v", err)
	}
	if len(tab) != 2 || tab[0][0] != "a" || tab[1][0] != "d" {
		t.Fatalf("SweepSpans answers %v, want [[a] [d]]", tab)
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(500, func() { tab, _ = el.SweepSpans(ix, nil, free, tab[:0], nil) })
	if allocs != 0 {
		t.Fatalf("warm SweepSpans into a reused table allocates %.1f/op, want 0", allocs)
	}
}

// TestUntouchedApplyFirstWalkZeroAlloc: after a write to a relation
// the query does not read, the first walk on the child version reuses
// the parent's program and warm evaluation state, so it allocates
// nothing — no per-version recompile.
func TestUntouchedApplyFirstWalkZeroAlloc(t *testing.T) {
	el, d, p := progFixture(t)
	child := applyOne(t, d, db.NewFact(schema.NewRelation("T", 2, 1), "k2", "v"))
	ix := match.NewIndex(child)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	el.CertainChecked(ix, nil, nil)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("first walk on the child allocates %d objects, want 0", n)
	}
	if el.last.Load() != p {
		t.Fatal("the first walk on the child recompiled the program")
	}
}
