package shard

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cqa/internal/db"
	"cqa/internal/query"
	"cqa/internal/schema"
)

func testDB(t *testing.T, text string) *db.DB {
	t.Helper()
	d, err := db.ParseFacts(nil, text)
	if err != nil {
		t.Fatalf("ParseFacts: %v", err)
	}
	return d
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
			// Ownership is part of the wire contract between a router
			// and its nodes: it must stay the standard FNV-1a.
			h := fnv.New64a()
			h.Write([]byte(id))
			if want := int(h.Sum64() % uint64(n)); got != want {
				t.Fatalf("Of(%q, %d) = %d, FNV-1a says %d", id, n, got, want)
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
	if allocs := testing.AllocsPerRun(100, func() { Of("R\x00k1", 4) }); allocs != 0 {
		t.Errorf("Of allocates %v per call", allocs)
	}
}

func TestPartition(t *testing.T) {
	d := testDB(t, `
R(a | 1)
R(a | 2)
R(b | 1)
S(a, x | 1)
S(b, y | 2)
T(z | 9)
`)
	const n = 3
	p := NewPartition(d, n)
	if p.N() != n {
		t.Fatalf("partition width %d, want %d", p.N(), n)
	}
	seen := map[string]int{} // block ID -> owning shard
	total := 0
	for id := 0; id < n; id++ {
		v := p.View(id)
		if v.ID != id || v.DB != d {
			t.Fatalf("view %d: ID %d, shared snapshot %v", id, v.ID, v.DB == d)
		}
		count := 0
		for _, rel := range d.Relations() {
			sp := v.SpansOf(rel)
			if sp == nil {
				t.Fatalf("shard %d: nil spans for %s (nil means every block)", id, rel)
			}
			blocks := d.BlocksOf(rel)
			for _, bi := range sp {
				b := blocks[bi]
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
		if v.SpansOf("Missing") != nil {
			t.Errorf("shard %d: spans for a relation without facts", id)
		}
		total += count
	}
	if total != d.NumBlocks() {
		t.Errorf("shards own %d blocks in total, snapshot has %d", total, d.NumBlocks())
	}
	if w := NewPartition(d, 0); w.N() != 1 || w.View(0).NumBlocks() != d.NumBlocks() {
		t.Errorf("width 0 partition: N %d, %d blocks", w.N(), w.View(0).NumBlocks())
	}
	// A partition reads the blocks, not the columnar view: building the
	// view first moves no span.
	d.Columnar()
	if warm := NewPartition(d, n); !reflect.DeepEqual(warm.spans, p.spans) {
		t.Errorf("partition after the view build differs:\n  %v\n  %v", warm.spans, p.spans)
	}
}

// partitionFingerprint renders every shard's span lists in a canonical
// form (the owned blocks' facts), for comparing a derived partition
// against a cold build.
func partitionFingerprint(t *testing.T, p *Partition) []string {
	t.Helper()
	var out []string
	for rel, perShard := range p.spans {
		if len(perShard) != p.n {
			t.Fatalf("%s: %d span lists, width %d", rel, len(perShard), p.n)
		}
		// Spans must point at blocks the shard owns in the partition's
		// database, and cover the relation.
		blocks := p.db.BlocksOf(rel)
		if blocks == nil {
			t.Fatalf("spans for relation %s without facts", rel)
		}
		covered := 0
		for id, sp := range perShard {
			covered += len(sp)
			out = append(out, fmt.Sprintf("s%d spans %s %d", id, rel, len(sp)))
			for _, bi := range sp {
				b := blocks[bi]
				if Of(b.ID, p.n) != id {
					t.Fatalf("shard %d span %d of %s not owned", id, bi, rel)
				}
				facts := make([]string, len(b.Facts))
				for i, f := range b.Facts {
					facts[i] = f.String()
				}
				sort.Strings(facts)
				out = append(out, fmt.Sprintf("s%d %s %q %v", id, rel, b.ID, facts))
			}
		}
		if covered != len(blocks) {
			t.Fatalf("%s: %d spans across shards, %d blocks", rel, covered, len(blocks))
		}
	}
	for id := 0; id < p.n; id++ {
		out = append(out, fmt.Sprintf("s%d total %d", id, p.View(id).NumBlocks()))
	}
	sort.Strings(out)
	return out
}

// TestDeriveMatchesRebuild drives random mutation chains and checks the
// derived partition is identical to a cold NewPartition of the same
// version.
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
		part := NewPartition(cur, n)
		for step := 0; step < 12; step++ {
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
			derived := part.Derive(child, res.Changes)
			got := partitionFingerprint(t, derived)
			want := partitionFingerprint(t, NewPartition(child, n))
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
			part, cur = derived, child
		}
	}
}

// TestDeriveServesQueries checks a derived partition reads the child's
// blocks — including a relation the delta empties — and leaves the
// parent's untouched.
func TestDeriveServesQueries(t *testing.T) {
	d := testDB(t, `
		R(a | 1)
		R(b | 1)
		R(c | 2)
		T(z | 9)
	`)
	part := NewPartition(d, 3)
	relR := d.Blocks()[0].Facts[0].Rel
	relT := d.BlocksOf("T")[0].Facts[0].Rel
	var delta db.Delta
	delta.Insert(db.NewFact(relR, "d", "9"))
	delta.Delete(db.NewFact(relR, "b", "1"))
	delta.Delete(db.NewFact(relT, "z", "9"))
	child, res, err := d.ApplyChanges(delta)
	if err != nil {
		t.Fatal(err)
	}
	derived := part.Derive(child, res.Changes)

	factsOf := func(p *Partition, rel string) int {
		total := 0
		blocks := p.db.BlocksOf(rel)
		for i := 0; i < p.N(); i++ {
			for _, bi := range p.View(i).SpansOf(rel) {
				total += len(blocks[bi].Facts)
			}
		}
		return total
	}
	if got := factsOf(derived, "R"); got != 3 {
		t.Errorf("derived partition sees %d R facts, want 3", got)
	}
	if sp := derived.View(0).SpansOf("T"); sp != nil {
		t.Errorf("derived partition keeps spans %v for the emptied relation T", sp)
	}
	if got := factsOf(part, "R"); got != 3 || part.View(0).SpansOf("T") == nil {
		t.Errorf("Derive modified the parent partition")
	}
}
