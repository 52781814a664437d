package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/faultinject"
)

func testDB(t *testing.T, text string) *db.DB {
	t.Helper()
	d, err := db.ParseFacts(nil, text)
	if err != nil {
		t.Fatalf("ParseFacts: %v", err)
	}
	return d
}

func chainDB(t *testing.T, n int) *db.DB {
	t.Helper()
	d := db.New()
	for i := 0; i < n; i++ {
		f, err := db.ParseFact(nil, fmt.Sprintf("R(x%d | y%d)", i, i))
		if err != nil {
			t.Fatalf("ParseFact: %v", err)
		}
		d.Add(f)
	}
	return d
}

// waitBuilt polls until every shard's initial build settled (the
// Building gauge reaches zero), failing the test on timeout.
func waitBuilt(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Building() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("shards still building after 5s: %d", p.Building())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, jobs, want int
	}{
		{0, 1000, maxprocs},
		{-3, 1000, maxprocs},
		{8, 3, 3},
		{2, 100, 2},
		{1, 100, 1},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.jobs); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.jobs, got, c.want)
		}
	}
}

func TestOf(t *testing.T) {
	ids := []string{"R\x00a", "R\x00b", "S\x00a", "S\x00b\x00c", ""}
	for _, id := range ids {
		if got := Of(id, 1); got != 0 {
			t.Errorf("Of(%q, 1) = %d, want 0", id, got)
		}
		if got := Of(id, 0); got != 0 {
			t.Errorf("Of(%q, 0) = %d, want 0", id, got)
		}
		for _, n := range []int{2, 3, 7} {
			got := Of(id, n)
			if got < 0 || got >= n {
				t.Fatalf("Of(%q, %d) = %d out of range", id, n, got)
			}
			if again := Of(id, n); again != got {
				t.Fatalf("Of(%q, %d) not deterministic: %d then %d", id, n, got, again)
			}
		}
	}
	// Sanity: a few hundred distinct keys spread over more than one shard.
	hit := map[int]bool{}
	for i := 0; i < 300; i++ {
		hit[Of(fmt.Sprintf("R\x00k%d", i), 4)] = true
	}
	if len(hit) < 2 {
		t.Errorf("300 keys landed on %d of 4 shards; hash is degenerate", len(hit))
	}
}

func TestPoolPartition(t *testing.T) {
	d := testDB(t, `
R(a | 1)
R(a | 2)
R(b | 1)
S(a, x | 1)
S(b, y | 2)
T(z | 9)
`)
	const n = 3
	p := NewPool(d, n, PoolOptions{})
	defer p.Close()
	waitBuilt(t, p)

	seen := map[string]int{} // block ID -> owning shard
	total := 0
	for id := 0; id < n; id++ {
		got, err := Do(context.Background(), p, id, nil, func(v *View, chk *evalctx.Checker) (int, error) {
			if v.ID != id {
				t.Errorf("view ID %d, want %d", v.ID, id)
			}
			if v.DB != d {
				t.Errorf("view DB is not the shared snapshot")
			}
			count := 0
			for _, rel := range d.Relations() {
				cr := d.Columnar().Rel(rel)
				for _, bi := range v.SpansOf(rel) {
					b := cr.Blocks[bi]
					if owner, dup := seen[b.ID]; dup {
						t.Errorf("block %q on shards %d and %d", b.ID, owner, id)
					}
					seen[b.ID] = id
					if want := Of(b.ID, n); want != id {
						t.Errorf("block %q on shard %d, hash says %d", b.ID, id, want)
					}
					if b.Facts[0].Rel.Name != rel {
						t.Errorf("block %q grouped under relation %q", b.ID, rel)
					}
					count++
				}
			}
			if count != v.NumBlocks() {
				t.Errorf("shard %d: NumBlocks() = %d, walked %d", id, v.NumBlocks(), count)
			}
			return count, nil
		})
		if err != nil {
			t.Fatalf("Do(shard %d): %v", id, err)
		}
		total += got
	}
	if total != d.NumBlocks() {
		t.Errorf("shards own %d blocks in total, snapshot has %d", total, d.NumBlocks())
	}
}

func TestPoolCloseInline(t *testing.T) {
	d := testDB(t, "R(a | 1)")
	p := NewPool(d, 2, PoolOptions{})
	waitBuilt(t, p)
	p.Close()
	p.Close() // idempotent

	// Dispatch after Close still completes, inline in the caller.
	got, err := Do(context.Background(), p, 1, nil, func(v *View, chk *evalctx.Checker) (string, error) {
		return "inline", nil
	})
	if err != nil || got != "inline" {
		t.Fatalf("Do after Close = (%q, %v), want (inline, nil)", got, err)
	}
}

func TestHealthLifecycle(t *testing.T) {
	defer faultinject.Reset()
	d := chainDB(t, 40)
	boom := errors.New("boom")

	// A pool whose every initial build fails: shards end Unhealthy, the
	// Building gauge still settles at zero, and errors carry ErrFailed.
	faultinject.Set("shard.index", func(int) error { return boom })
	p := NewPool(d, 2, PoolOptions{})
	defer p.Close()
	waitBuilt(t, p)
	st := p.Stats()
	if st.Unhealthy != 2 || st.Ready != 0 || st.Building != 0 {
		t.Fatalf("after failed builds: %+v", st)
	}
	_, err := Do(context.Background(), p, 0, nil, func(v *View, chk *evalctx.Checker) (bool, error) {
		return true, nil
	})
	if !errors.Is(err, ErrFailed) || !errors.Is(err, boom) {
		t.Fatalf("eval on unbuilt shard: %v, want ErrFailed wrapping boom", err)
	}

	// Clearing the fault lets the next task rebuild and heal the shard.
	faultinject.Clear("shard.index")
	ok, err := Do(context.Background(), p, 0, nil, func(v *View, chk *evalctx.Checker) (bool, error) {
		return v.NumBlocks() >= 0, nil
	})
	if err != nil || !ok {
		t.Fatalf("eval after clearing fault: (%v, %v)", ok, err)
	}
	st = p.Stats()
	if st.Shards[0].Health != HealthReady {
		t.Fatalf("shard 0 health %v after successful rebuild, want ready", st.Shards[0].Health)
	}

	// An injected evaluation fault flips the shard unhealthy...
	faultinject.SetWindow("shard.eval.0", 0, 1, func(int) error { return boom })
	_, err = Do(context.Background(), p, 0, nil, func(v *View, chk *evalctx.Checker) (bool, error) {
		return true, nil
	})
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("injected eval fault: %v, want ErrFailed", err)
	}
	if h := p.Stats().Shards[0].Health; h != HealthUnhealthy {
		t.Fatalf("shard 0 health %v after eval fault, want unhealthy", h)
	}

	// ...a benign error (the request's own limits) does not...
	_, err = Do(context.Background(), p, 1, nil, func(v *View, chk *evalctx.Checker) (bool, error) {
		return false, evalctx.ErrBudgetExceeded
	})
	if !errors.Is(err, evalctx.ErrBudgetExceeded) {
		t.Fatalf("budget error: %v", err)
	}
	if h := p.Stats().Shards[1].Health; h != HealthReady {
		t.Fatalf("shard 1 health %v after budget error, want ready", h)
	}

	// ...and a success heals.
	if _, err := Do(context.Background(), p, 0, nil, func(v *View, chk *evalctx.Checker) (bool, error) {
		return true, nil
	}); err != nil {
		t.Fatalf("healing eval: %v", err)
	}
	st = p.Stats()
	if h := st.Shards[0].Health; h != HealthReady {
		t.Fatalf("shard 0 health %v after success, want ready", h)
	}
	if st.Shards[0].Evals == 0 || st.Shards[0].Failures == 0 {
		t.Fatalf("shard 0 counters not accounted: %+v", st.Shards[0])
	}
	if st.Shards[0].Blocks == 0 && st.Shards[1].Blocks == 0 {
		t.Fatalf("no shard reports blocks: %+v", st.Shards)
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{
		HealthBuilding:  "building",
		HealthReady:     "ready",
		HealthUnhealthy: "unhealthy",
		Health(99):      "unknown",
	} {
		if got := h.String(); got != want {
			t.Errorf("Health(%d).String() = %q, want %q", h, got, want)
		}
	}
}

func TestHedging(t *testing.T) {
	defer faultinject.Reset()
	d := testDB(t, "R(a | 1)")
	p := NewPool(d, 1, PoolOptions{Hedge: 5 * time.Millisecond})
	defer p.Close()
	waitBuilt(t, p)

	// Only the first (primary) execution sleeps; the hedged duplicate
	// runs clean and wins.
	faultinject.SetWindow("shard.eval.0", 0, 1, func(int) error {
		time.Sleep(300 * time.Millisecond)
		return nil
	})
	start := time.Now()
	got, err := Do(context.Background(), p, 0, nil, func(v *View, chk *evalctx.Checker) (int, error) {
		return 42, nil
	})
	if err != nil || got != 42 {
		t.Fatalf("hedged Do = (%d, %v), want (42, nil)", got, err)
	}
	if took := time.Since(start); took >= 300*time.Millisecond {
		t.Errorf("hedged call took %v; the duplicate did not win", took)
	}
	st := p.Stats()
	if st.Hedges < 1 || st.HedgeWins < 1 {
		t.Errorf("hedge counters = %d/%d, want >= 1 each", st.Hedges, st.HedgeWins)
	}
}

func TestDoCancellation(t *testing.T) {
	defer faultinject.Reset()
	d := testDB(t, "R(a | 1)")
	p := NewPool(d, 1, PoolOptions{})
	defer p.Close()
	waitBuilt(t, p)

	faultinject.SetWindow("shard.eval.0", 0, 1, func(int) error {
		time.Sleep(200 * time.Millisecond)
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := Do(ctx, p, 0, nil, func(v *View, chk *evalctx.Checker) (bool, error) {
		return true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do: %v, want context.Canceled", err)
	}
}

func TestStatsSummary(t *testing.T) {
	d := chainDB(t, 20)
	p := NewPool(d, 4, PoolOptions{})
	defer p.Close()
	waitBuilt(t, p)
	st := p.Stats()
	if st.Total != 4 || st.Ready != 4 || st.Building != 0 || st.Unhealthy != 0 {
		t.Fatalf("fresh pool stats: %+v", st)
	}
	blocks := 0
	for _, s := range st.Shards {
		blocks += s.Blocks
		if s.Hist == nil {
			t.Fatalf("shard %d has no histogram", s.ID)
		}
	}
	if blocks != d.NumBlocks() {
		t.Fatalf("stats report %d blocks, snapshot has %d", blocks, d.NumBlocks())
	}
}
