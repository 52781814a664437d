package sym

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	tb := NewTable()
	words := []string{"a", "b", "", "a", "x\x00y", "b", "長い"}
	ids := make([]ID, len(words))
	for i, w := range words {
		ids[i] = tb.Intern(w)
	}
	if ids[0] != ids[3] || ids[1] != ids[5] {
		t.Fatalf("re-interning did not return the same ID: %v", ids)
	}
	if ids[0] == ids[1] {
		t.Fatalf("distinct strings share an ID: %v", ids)
	}
	// IDs are dense and sequential in interning order.
	want := []ID{0, 1, 2, 0, 3, 1, 4}
	for i := range ids {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if tb.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tb.Len())
	}
	for i, w := range words {
		if got := tb.String(ids[i]); got != w {
			t.Fatalf("String(%d) = %q, want %q", ids[i], got, w)
		}
	}
}

// TestConcurrentInternLookup hammers one table from many goroutines
// interning overlapping key sets, re-interning each key (a lookup of a
// known string) and stringifying its ID.
// Run under -race (the make check race gate includes this package); the
// invariant checked here is that every string keeps exactly one ID.
func TestConcurrentInternLookup(t *testing.T) {
	tb := NewTable()
	const workers = 8
	const keys = 200
	results := make([][]ID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]ID, keys)
			for i := 0; i < keys; i++ {
				s := fmt.Sprintf("k%d", i)
				ids[i] = tb.Intern(s)
				if got := tb.Intern(s); got != ids[i] {
					t.Errorf("re-Intern(%q) = %d after Intern returned %d", s, got, ids[i])
					return
				}
				if got := tb.String(ids[i]); got != s {
					t.Errorf("String(%d) = %q, want %q", ids[i], got, s)
					return
				}
			}
			results[w] = ids
		}(w)
	}
	wg.Wait()
	if tb.Len() != keys {
		t.Fatalf("Len = %d, want %d", tb.Len(), keys)
	}
	for w := 1; w < workers; w++ {
		for i := 0; i < keys; i++ {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d got ID %d for key %d, worker 0 got %d", w, results[w][i], i, results[0][i])
			}
		}
	}
}
