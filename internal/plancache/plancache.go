// Package plancache caches compiled certainty plans for a serving
// process. Compiling a plan — attack-graph classification plus, for FO
// queries, the first-order rewriting — is per-query work, polynomial in
// |q| and independent of the data (Lemma 3 of Koutris & Wijsen, PODS
// 2015), so a server compiles each distinct query once and answers every
// subsequent data-side request from the cached plan.
//
// The cache is a sharded, mutex-protected LRU keyed by the normalized
// query text of core.Normalize, so textual variants of the same query
// (whitespace, atom order) share one entry. Hits, misses, and evictions
// are counted for the /metrics endpoint.
package plancache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"cqa/internal/core"
	"cqa/internal/faultinject"
	"cqa/internal/trace"
)

// DefaultCapacity is the total plan capacity used when New is given a
// non-positive capacity.
const DefaultCapacity = 1024

const shardCount = 16

// Cache is a sharded LRU of compiled plans. The zero value is not
// ready; use New. All methods are safe for concurrent use.
type Cache struct {
	shards [shardCount]shard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type shard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type entry struct {
	key  string
	plan *core.Plan
}

// New returns a cache holding at most capacity plans in total, spread
// evenly across the shards (each shard holds at least one). A
// non-positive capacity selects DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + shardCount - 1) / shardCount
	c := &Cache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		s.ll = list.New()
		s.items = make(map[string]*list.Element)
	}
	return c
}

func (c *Cache) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%shardCount]
}

// Get returns the plan cached under the normalized key, bumping its
// recency. It counts a hit or a miss.
func (c *Cache) Get(key string) (*core.Plan, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry).plan, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put inserts (or refreshes) a plan under the normalized key, evicting
// the least recently used entry of its shard when the shard is full.
func (c *Cache) Put(key string, p *core.Plan) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*entry).plan = p
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&entry{key: key, plan: p})
	for s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).key)
		c.evictions.Add(1)
	}
}

// GetOrCompile normalizes the query text, returns the cached plan on a
// hit, and compiles + inserts on a miss. Concurrent misses on the same
// key may compile twice; compilation is pure, so the duplicate work is
// harmless and the last insert wins. Normalization is traced under the
// "normalize" stage, and a miss's compilation under "compile" — a hit
// records no compile span, which is exactly the signal that
// distinguishes a cold query from a warm one in a request trace. A nil
// tracer records nothing.
func (c *Cache) GetOrCompile(text string, tr *trace.Tracer) (p *core.Plan, hit bool, err error) {
	sp := tr.Begin(trace.StageNormalize)
	q, key, err := core.Normalize(text)
	sp.End()
	if err != nil {
		return nil, false, err
	}
	if p, ok := c.Get(key); ok {
		return p, true, nil
	}
	// Chaos hook: simulate a compilation failure on the miss path.
	if err := faultinject.Fire("plancache.compile"); err != nil {
		return nil, false, err
	}
	sp = tr.Begin(trace.StageCompile)
	p, err = core.Compile(q)
	sp.End()
	if err != nil {
		return nil, false, err
	}
	c.Put(key, p)
	return p, false, nil
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// Stats returns the current counters and entry count.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
