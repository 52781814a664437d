package store

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cqa/internal/core"
	"cqa/internal/match"
	"cqa/internal/query"
)

func TestPutGetDeleteList(t *testing.T) {
	s := New()
	if _, ok := s.Get("prod"); ok {
		t.Fatal("empty store returned a snapshot")
	}
	snap, err := s.PutFacts("prod", "R(a | b)\nR(a | c)\nS(b | d)\n")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || snap.Facts != 3 || snap.Blocks != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
	if got, _ := s.Get("prod"); got != snap {
		t.Error("Get returned a different snapshot")
	}
	snap2, err := s.PutFacts("prod", "R(a | b)\n")
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Version != 2 || snap2.Facts != 1 {
		t.Errorf("replacement snapshot = %+v", snap2)
	}
	// The superseded snapshot is untouched: in-flight readers keep it.
	if snap.Facts != 3 || snap.DB.Len() != 3 {
		t.Error("old snapshot mutated by swap")
	}
	s.PutFacts("dev", "T(x | y)\n")
	names := []string{}
	for _, sn := range s.List() {
		names = append(names, sn.Name)
	}
	if len(names) != 2 || names[0] != "dev" || names[1] != "prod" {
		t.Errorf("List = %v", names)
	}
	if !s.Delete("dev") || s.Delete("dev") {
		t.Error("Delete bookkeeping wrong")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestPutFactsRejectsBadInput(t *testing.T) {
	s := New()
	if _, err := s.PutFacts("x", "R(a | b\n"); err == nil {
		t.Error("malformed fact accepted")
	}
	if _, err := s.PutFacts("x", "T#c(a | 1)\nT#c(a | 2)\n"); err == nil {
		t.Error("mode-c key violation accepted")
	}
	if s.Len() != 0 {
		t.Error("rejected upload was published")
	}
}

// TestSnapshotIndexCached: the snapshot index is built once per version,
// shared across requests, and replaced along with the snapshot on Put;
// the store's counters record exactly one miss per build.
func TestSnapshotIndexCached(t *testing.T) {
	s := New()
	snap, err := s.PutFacts("db", "R(a | b)\nR(a | c)\nS(b | z)\n")
	if err != nil {
		t.Fatal(err)
	}
	ix1 := snap.Index()
	ix2 := snap.Index()
	if ix1 == nil || ix1 != ix2 {
		t.Fatalf("index not cached: %p vs %p", ix1, ix2)
	}
	if ix1.DB != snap.DB {
		t.Error("index built over the wrong database")
	}
	if h, m := s.IndexStats().Hits(), s.IndexStats().Misses(); h != 1 || m != 1 {
		t.Errorf("hits=%d misses=%d; want 1, 1", h, m)
	}
	snap2, err := s.PutFacts("db", "R(a | b)\n")
	if err != nil {
		t.Fatal(err)
	}
	if ix3 := snap2.Index(); ix3 == ix1 {
		t.Error("replacement snapshot reused the superseded index")
	}
	if h, m := s.IndexStats().Hits(), s.IndexStats().Misses(); h != 1 || m != 2 {
		t.Errorf("after swap: hits=%d misses=%d; want 1, 2", h, m)
	}
	// The superseded snapshot keeps serving its own index.
	if snap.Index() != ix1 {
		t.Error("old snapshot lost its index after the swap")
	}
}

// TestSnapshotIndexConcurrent: many goroutines race to build the index
// of a cold snapshot; exactly one build happens and everyone shares it.
// Run with -race.
func TestSnapshotIndexConcurrent(t *testing.T) {
	s := New()
	snap, err := s.PutFacts("db", "R(a | b)\nR(a | c)\nS(b | z)\nS(c | z)\n")
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	indexes := make(chan interface{}, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			indexes <- snap.Index()
		}()
	}
	wg.Wait()
	close(indexes)
	first := <-indexes
	for ix := range indexes {
		if ix != first {
			t.Fatal("concurrent readers got different indexes")
		}
	}
	if m := s.IndexStats().Misses(); m != 1 {
		t.Errorf("misses = %d; want exactly 1 build", m)
	}
	if h := s.IndexStats().Hits(); h != readers-1 {
		t.Errorf("hits = %d; want %d", h, readers-1)
	}
}

// TestConcurrentSwapAndRead uploads new versions while readers resolve
// and evaluate against whatever snapshot is current; run with -race.
func TestConcurrentSwapAndRead(t *testing.T) {
	s := New()
	if _, err := s.PutFacts("db", "R(a | b)\nS(b | c)\n"); err != nil {
		t.Fatal(err)
	}
	q := query.MustParse("R(x | y), S(y | z)")
	plan, err := core.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				text := fmt.Sprintf("R(a | b%d)\nR(a | c%d)\nS(b%d | z)\nS(c%d | z)\n", i, i, i, i)
				if _, err := s.PutFacts("db", text); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				snap, ok := s.Get("db")
				if !ok {
					t.Errorf("reader %d: db vanished", r)
					return
				}
				if _, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(snap.DB), core.Options{}); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	snap, _ := s.Get("db")
	if snap.Version != 1+4*50 {
		t.Errorf("final version = %d, want %d", snap.Version, 1+4*50)
	}
}
