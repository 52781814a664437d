//go:build !race

// The zero-allocation pins of the interned hot path. Excluded under
// the race detector, whose instrumentation inserts allocations the
// production build does not perform.

package rewrite

import (
	"runtime"
	"testing"

	"cqa/internal/match"
	"cqa/internal/query"
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

// TestSweepSpanBitsZeroAlloc pins the batched answers kernel: deciding
// every block of the top relation into a caller-owned buffer allocates
// nothing once warm.
func TestSweepSpanBitsZeroAlloc(t *testing.T) {
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
	cr := d.Columnar().Rel("R")
	if cr == nil {
		t.Fatal("fixture relation R missing from columnar view")
	}
	bits := make([]bool, cr.Rel.NumBlocks())
	if err := el.SweepSpanBits(ix, nil, bits, nil); err != nil {
		t.Fatalf("SweepSpanBits: %v", err)
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(500, func() { el.SweepSpanBits(ix, nil, bits, nil) })
	if allocs != 0 {
		t.Fatalf("warm SweepSpanBits allocates %.1f/op, want 0", allocs)
	}
}
