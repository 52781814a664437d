//go:build !race

// Zero-allocation pin for the full serving hot path: Plan →
// CertainIndexedCtx → interned eliminator, with the default (nil) checker
// and no sharding. Excluded under the race detector, whose
// instrumentation allocates.

package core

import (
	"context"
	"runtime"
	"testing"

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
