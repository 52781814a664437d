//go:build !race

// Zero-allocation pin for the full serving hot path: Plan →
// CertainIndexedCtx → interned eliminator, with the default (nil) checker
// and no sharding. Excluded under the race detector, whose
// instrumentation allocates.

package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/query"
)

// TestWarmCertainIndexedZeroAlloc: the end-to-end Boolean FO request
// path allocates nothing once the snapshot structures are warm. This
// is the property the bench-smoke gate checks in BENCH_eval.json
// (warm "certain" rows must report 0 allocs/op).
func TestWarmCertainIndexedZeroAlloc(t *testing.T) {
	p, err := Compile(query.MustParse("R(x | y), S(y | z)"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.ParseFacts(nil, `
		R(a | b)
		R(a | c)
		R(d | b)
		S(b | t)
		S(c | t)
	`)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(d)
	if _, err := p.CertainIndexedCtx(context.Background(), ix, Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(500, func() { p.CertainIndexedCtx(context.Background(), ix, Options{}) })
	if allocs != 0 {
		t.Fatalf("warm CertainIndexedCtx allocates %.1f/op, want 0", allocs)
	}
}

// TestFOCandidatesSkipRowIndex: an FO answers request on the candidate
// path (a non-key free variable, several workers) over a freshly
// Apply-derived version reads only the columnar view, never the
// O(database) row index: the first DB.Blocks call after the request
// still has to build it.
func TestFOCandidatesSkipRowIndex(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	rRel, sRel := q.Atoms[0].Rel, q.Atoms[1].Rel
	d := db.New()
	for i := 0; i < n; i++ {
		d.Add(db.NewFact(rRel, query.Const(fmt.Sprintf("k%d", i)), query.Const(fmt.Sprintf("m%d", i))))
	}
	d.Add(db.NewFact(sRel, "m0", "z0"))
	d.Columnar()
	var delta db.Delta
	delta.Insert(db.NewFact(sRel, "m1", "z1"))
	child, err := d.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.CertainAnswersIndexedCtx(context.Background(), []query.Var{"z"}, match.NewIndex(child), Options{Workers: 2})
	if err != nil || len(out) != 2 {
		t.Fatalf("answers %v, err %v", out, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	child.Blocks()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got < n*uint64(unsafe.Sizeof(db.Block{})) {
		t.Errorf("Blocks() after the request allocated %d bytes: the request already built the row index", got)
	}
}
