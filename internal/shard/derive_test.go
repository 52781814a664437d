package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"cqa/internal/db"
	"cqa/internal/faultinject"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// partitionFingerprint renders every shard's span partition in a
// canonical form (the owned blocks' facts, via the columnar view), for
// comparing a derived pool against a cold rebuild.
func partitionFingerprint(t *testing.T, p *Pool) []string {
	t.Helper()
	waitBuilt(t, p)
	var out []string
	for _, s := range p.shards {
		if !s.built.Load() {
			t.Fatalf("shard %d not built", s.id)
		}
		for rel, sp := range s.spans {
			out = append(out, fmt.Sprintf("s%d spans %s %d", s.id, rel, len(sp)))
			// Spans must point at blocks this shard owns in the columnar
			// view of the pool's database.
			cr := p.db.Columnar().Rel(rel)
			if cr == nil {
				t.Fatalf("shard %d has spans for relation %s without facts", s.id, rel)
			}
			for _, bi := range sp {
				b := cr.Blocks[bi]
				if Of(b.ID, p.n) != s.id {
					t.Fatalf("shard %d span %d of %s not owned", s.id, bi, rel)
				}
				facts := make([]string, len(b.Facts))
				for i, f := range b.Facts {
					facts[i] = f.String()
				}
				sort.Strings(facts)
				out = append(out, fmt.Sprintf("s%d %s %q %v", s.id, rel, b.ID, facts))
			}
		}
		out = append(out, fmt.Sprintf("s%d total %d", s.id, s.numBlocks))
	}
	sort.Strings(out)
	return out
}

// checkSpanCoverage requires, per relation, the spans across shards to
// add up to the columnar block count.
func checkSpanCoverage(t *testing.T, p *Pool) {
	t.Helper()
	col := p.db.Columnar()
	for _, name := range col.RelNames() {
		cr := col.Rel(name)
		total := 0
		for _, s := range p.shards {
			sp, ok := s.spans[name]
			if !ok {
				t.Fatalf("shard %d missing spans entry for %s", s.id, name)
			}
			total += len(sp)
		}
		if total != cr.Rel.NumBlocks() {
			t.Fatalf("%s: %d spans across shards, %d columnar blocks", name, total, cr.Rel.NumBlocks())
		}
	}
}

// TestDeriveMatchesRebuild drives random mutation chains and checks the
// derived pool's partition is identical to a cold NewPool build of the
// same version.
func TestDeriveMatchesRebuild(t *testing.T) {
	relR := schema.NewRelation("R", 2, 1)
	relS := schema.NewRelation("S", 3, 2)
	rng := rand.New(rand.NewSource(11))
	randFact := func() db.Fact {
		if rng.Intn(2) == 0 {
			return db.NewFact(relR,
				query.Const(fmt.Sprintf("k%d", rng.Intn(12))),
				query.Const(fmt.Sprintf("v%d", rng.Intn(4))))
		}
		return db.NewFact(relS,
			query.Const(fmt.Sprintf("a%d", rng.Intn(6))),
			query.Const(fmt.Sprintf("b%d", rng.Intn(6))),
			query.Const(fmt.Sprintf("v%d", rng.Intn(4))))
	}
	for _, n := range []int{1, 3, 5} {
		cur := db.New()
		for i := 0; i < 20; i++ {
			cur.Add(randFact())
		}
		pool := NewPool(cur, n, PoolOptions{})
		waitBuilt(t, pool)
		for step := 0; step < 6; step++ {
			var delta db.Delta
			for i := 0; i < 1+rng.Intn(5); i++ {
				f := randFact()
				if rng.Intn(3) == 0 {
					delta.Delete(f)
				} else {
					delta.Insert(f)
				}
			}
			child, res, err := cur.ApplyChanges(delta)
			if err != nil {
				t.Fatal(err)
			}
			if child == cur {
				continue
			}
			derived := pool.Derive(child, res.Changes)
			if derived == nil {
				t.Fatal("Derive returned nil on an open pool")
			}
			cold := NewPool(child, n, PoolOptions{})
			got := partitionFingerprint(t, derived)
			want := partitionFingerprint(t, cold)
			if len(got) != len(want) {
				t.Fatalf("n=%d step %d: %d vs %d partition entries\n%v\n%v",
					n, step, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d step %d: partition differs:\n  derived %s\n  rebuilt %s",
						n, step, got[i], want[i])
				}
			}
			checkSpanCoverage(t, derived)
			cold.Close()
			pool.Close()
			pool, cur = derived, child
		}
		pool.Close()
	}
}

// TestDeriveServesQueries checks a derived pool evaluates correctly via
// the public scatter path.
func TestDeriveServesQueries(t *testing.T) {
	d := testDB(t, `
		R(a | 1)
		R(b | 1)
		R(c | 2)
	`)
	pool := NewPool(d, 3, PoolOptions{})
	waitBuilt(t, pool)
	relR := d.Blocks()[0].Facts[0].Rel
	var delta db.Delta
	delta.Insert(db.NewFact(relR, "d", "9"))
	delta.Delete(db.NewFact(relR, "b", "1"))
	child, res, err := d.ApplyChanges(delta)
	if err != nil {
		t.Fatal(err)
	}
	derived := pool.Derive(child, res.Changes)
	defer derived.Close()
	defer pool.Close()
	waitBuilt(t, derived)

	total := 0
	cr := child.Columnar().Rel("R")
	for i := 0; i < derived.N(); i++ {
		v := &View{ID: i, DB: child, s: derived.shards[i]}
		for _, bi := range v.SpansOf("R") {
			total += len(cr.Blocks[bi].Facts)
		}
	}
	if total != 3 {
		t.Errorf("derived pool sees %d facts, want 3", total)
	}
}

// TestDeriveUnbuiltParent checks that shards whose parent build had not
// completed rebuild in the background against the child, reported by the
// Building gauge.
func TestDeriveUnbuiltParent(t *testing.T) {
	defer faultinject.Reset()
	d := testDB(t, "R(a | 1)\nR(b | 2)")
	// Fail shard 0's initial build so the parent ends with an unbuilt
	// shard.
	faultinject.SetWindow("shard.index.0", 0, 1, func(int) error { return errors.New("boom") })
	pool := NewPool(d, 2, PoolOptions{})
	for pool.Building() > 0 {
		time.Sleep(time.Millisecond)
	}
	relR := d.Blocks()[0].Facts[0].Rel
	var delta db.Delta
	delta.Insert(db.NewFact(relR, "c", "3"))
	child, res, err := d.ApplyChanges(delta)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	derived := pool.Derive(child, res.Changes)
	defer derived.Close()
	defer pool.Close()
	waitBuilt(t, derived)
	got := partitionFingerprint(t, derived)
	cold := NewPool(child, 2, PoolOptions{})
	defer cold.Close()
	want := partitionFingerprint(t, cold)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("partition differs after background rebuild:\n  %s\n  %s", got[i], want[i])
		}
	}
}

// TestDeriveLifecycleRapidApply hammers the snapshot-replacement path
// the store drives on every delta: derive a child pool from a parent
// whose initial build is still running, close the replaced parent
// (concurrently and repeatedly — Close must be idempotent), and move
// on. NumGoroutine bracketing catches leaked shard workers; the
// repeated Close catches a close-of-closed-channel panic.
func TestDeriveLifecycleRapidApply(t *testing.T) {
	defer faultinject.Reset()
	// Slow every shard build enough that Derive reliably observes a
	// still-building parent and takes the background-rebuild path.
	faultinject.Set("shard.index", func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})

	base := runtime.NumGoroutine()
	relR := schema.NewRelation("R", 2, 1)
	for iter := 0; iter < 8; iter++ {
		cur := db.New()
		for i := 0; i < 8; i++ {
			cur.Add(db.NewFact(relR, query.Const(fmt.Sprintf("k%d", i)), "v"))
		}
		pool := NewPool(cur, 4, PoolOptions{})
		for step := 0; step < 6; step++ {
			var delta db.Delta
			delta.Insert(db.NewFact(relR, query.Const(fmt.Sprintf("i%d_%d", iter, step)), "v"))
			child, res, err := cur.ApplyChanges(delta)
			if err != nil {
				t.Fatal(err)
			}
			derived := pool.Derive(child, res.Changes)
			if derived == nil {
				t.Fatal("Derive returned nil on an open pool")
			}
			// The replaced parent closes while the child may still be
			// building, exactly as publishDelta's `go cur.ClosePool()`
			// races the next request's pool use.
			old := pool
			done := make(chan struct{})
			go func() { old.Close(); close(done) }()
			old.Close()
			<-done
			old.Close()
			pool, cur = derived, child
		}
		waitBuilt(t, pool)
		if b := pool.Building(); b != 0 {
			t.Fatalf("iter %d: %d shards still building after waitBuilt", iter, b)
		}
		pool.Close()
	}
	faultinject.Reset()

	// Every worker exits on Close; give the scheduler a moment to reap
	// them before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after all pools closed\n%s",
				base, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDeriveClosedPoolReturnsNil(t *testing.T) {
	d := testDB(t, "R(a | 1)")
	pool := NewPool(d, 2, PoolOptions{})
	waitBuilt(t, pool)
	pool.Close()
	relR := d.Blocks()[0].Facts[0].Rel
	var delta db.Delta
	delta.Insert(db.NewFact(relR, "b", "2"))
	child, res, err := d.ApplyChanges(delta)
	if err != nil {
		t.Fatal(err)
	}
	if p := pool.Derive(child, res.Changes); p != nil {
		p.Close()
		t.Error("Derive on a closed pool should return nil")
	}
}
