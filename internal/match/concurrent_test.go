package match

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cqa/internal/query"
	"cqa/internal/workload"
)

// joinRun is what one reader takes from a shared snapshot: the
// repair-constraint form and the valuations of a full join.
type joinRun struct {
	cs   *Constraints
	vals []string
}

func runJoin(t *testing.T, ix *Index, q query.Query) joinRun {
	t.Helper()
	cs, err := ix.Constraints(q, nil)
	if err != nil {
		t.Error(err)
		return joinRun{}
	}
	var vals []string
	ix.MatchChecked(q, nil, nil, func(v query.Valuation) bool {
		vals = append(vals, v.String())
		return true
	})
	return joinRun{cs, vals}
}

// TestSharedSnapshotJoinConcurrent: eight readers build the
// repair-constraint form and run the join over one database while
// another goroutine builds its columnar view. Every reader gets the
// serial run's constraints, its blocks (the same fact slices of the
// database) and its valuations. Run with -race (make check does).
func TestSharedSnapshotJoinConcurrent(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z), T(z | w)")
	p := workload.DefaultDBParams()
	p.SeedMatches, p.Domain, p.ExtraPerBlock = 150, 40, 0.6
	d := workload.RandomDB(rand.New(rand.NewSource(9)), q, p)
	want := runJoin(t, NewIndex(d), q)
	if want.cs == nil || len(want.cs.Cons) == 0 || len(want.vals) == 0 {
		t.Fatal("the serial run found no embeddings")
	}

	const readers = 8
	got := make([]joinRun, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		<-start
		d.Columnar()
	}()
	for i := range got {
		go func() {
			defer wg.Done()
			<-start
			got[i] = runJoin(t, NewIndex(d), q)
		}()
	}
	close(start)
	wg.Wait()

	for i, g := range got {
		if g.cs == nil {
			continue // runJoin reported the error
		}
		if !reflect.DeepEqual(g.cs.Cons, want.cs.Cons) {
			t.Errorf("reader %d: constraints differ from the serial run", i)
		}
		if len(g.cs.Blocks) != len(want.cs.Blocks) {
			t.Errorf("reader %d: %d blocks, serial run %d", i, len(g.cs.Blocks), len(want.cs.Blocks))
			continue
		}
		for b, blk := range g.cs.Blocks {
			if &blk.Facts[0] != &want.cs.Blocks[b].Facts[0] {
				t.Errorf("reader %d: block %d is not the serial run's %s", i, b, want.cs.Blocks[b].ID)
				break
			}
		}
		if !reflect.DeepEqual(g.vals, want.vals) {
			t.Errorf("reader %d: %d valuations differ from the serial run's %d", i, len(g.vals), len(want.vals))
		}
	}
}
