package plancache

import (
	"fmt"
	"sync"
	"testing"

	"cqa/internal/core"
	"cqa/internal/rewrite"
)

// sameShardKeys returns n distinct parseable query texts whose canonical
// keys all land in the same shard, so LRU order is deterministic.
func sameShardKeys(t *testing.T, c *Cache, n int) []string {
	t.Helper()
	target := c.shardFor("R0(x | y)")
	var out []string
	for i := 0; len(out) < n && i < 10000; i++ {
		text := fmt.Sprintf("R%d(x | y)", i)
		if c.shardFor(text) == target {
			out = append(out, text)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d same-shard keys", len(out))
	}
	return out
}

func TestLRUEvictionOrder(t *testing.T) {
	// Capacity 2*shardCount gives every shard room for exactly two
	// entries; three same-shard keys then exercise LRU eviction.
	c := New(2 * shardCount)
	keys := sameShardKeys(t, c, 3)
	for _, k := range keys[:2] {
		if _, hit, err := c.GetOrCompile(k, nil); err != nil || hit {
			t.Fatalf("prime %q: hit=%v err=%v", k, hit, err)
		}
	}
	// Touch keys[0] so keys[1] becomes the LRU victim.
	if _, hit, err := c.GetOrCompile(keys[0], nil); err != nil || !hit {
		t.Fatalf("bump %q: hit=%v err=%v", keys[0], hit, err)
	}
	if _, hit, err := c.GetOrCompile(keys[2], nil); err != nil || hit {
		t.Fatalf("insert %q: hit=%v err=%v", keys[2], hit, err)
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Error("LRU entry survived eviction")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New(shardCount) // one plan per shard
	for i := 0; i < 100; i++ {
		if _, _, err := c.GetOrCompile(fmt.Sprintf("R%d(x | y), S%d(y | z)", i, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > shardCount {
		t.Errorf("cache holds %d plans, capacity %d", n, shardCount)
	}
	st := c.Stats()
	if int(st.Evictions) != 100-st.Entries {
		t.Errorf("evictions=%d entries=%d, want evictions=100-entries", st.Evictions, st.Entries)
	}
}

func TestGetOrCompileNormalizes(t *testing.T) {
	c := New(0)
	p1, hit, err := c.GetOrCompile("  S(y | z),R(x | y) ", nil)
	if err != nil || hit {
		t.Fatalf("first: hit=%v err=%v", hit, err)
	}
	p2, hit, err := c.GetOrCompile("R(x | y), S(y | z)", nil)
	if err != nil || !hit {
		t.Fatalf("variant should hit: hit=%v err=%v", hit, err)
	}
	if p1 != p2 {
		t.Error("textual variants produced distinct plans")
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d plans, want 1", c.Len())
	}
	if p1.Class != core.FO || p1.Elim == nil || rewrite.Format(p1.Elim.Rewriting()) == "" {
		t.Errorf("cached plan incomplete: %+v", p1)
	}
	if _, _, err := c.GetOrCompile("R((", nil); err == nil {
		t.Error("parse error must propagate")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestConcurrentGetOrCompile hammers the cache from 32 goroutines; run
// with -race. Correctness: every returned plan classifies its own query.
func TestConcurrentGetOrCompile(t *testing.T) {
	c := New(8) // small capacity so evictions happen under contention
	queries := make([]string, 24)
	for i := range queries {
		queries[i] = fmt.Sprintf("R%d(x | y), S%d(y | z)", i, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				text := queries[(g+i)%len(queries)]
				p, _, err := c.GetOrCompile(text, nil)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if p.Class != core.FO {
					t.Errorf("goroutine %d: %s classified %v", g, text, p.Class)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 32*60 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 32*60)
	}
}
