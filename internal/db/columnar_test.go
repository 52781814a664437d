package db

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/sym"
)

func colTestDB() *DB {
	r := schema.Relation{Name: "R", Arity: 2, KeyLen: 1}
	s := schema.Relation{Name: "S", Arity: 3, KeyLen: 2}
	d := New()
	for i := 0; i < 20; i++ {
		k := query.Const(fmt.Sprintf("k%d", i))
		d.Add(NewFact(r, k, query.Const(fmt.Sprintf("v%d", i))))
		if i%3 == 0 {
			d.Add(NewFact(r, k, query.Const(fmt.Sprintf("w%d", i))))
		}
		d.Add(NewFact(s, k, "a", query.Const(fmt.Sprintf("v%d", i))))
	}
	return d
}

// TestColumnarMatchesRowView checks that the columnar view stores
// exactly the row view's blocks: same relations, same block multiset,
// spans aligned with the Blocks slice, and every stored argument
// printing back to the original constant.
func TestColumnarMatchesRowView(t *testing.T) {
	d := colTestDB()
	c := d.Columnar()
	if got, want := len(c.RelNames()), 2; got != want {
		t.Fatalf("RelNames = %v, want 2 relations", c.RelNames())
	}
	for _, name := range c.RelNames() {
		cr := c.Rel(name)
		if cr == nil {
			t.Fatalf("Rel(%q) = nil, want a columnar relation", name)
		}
		rowBlocks := d.BlocksOf(name)
		if cr.Rel.NumBlocks() != len(rowBlocks) || len(cr.Blocks) != len(rowBlocks) {
			t.Fatalf("%s: %d columnar blocks vs %d row blocks", name, cr.Rel.NumBlocks(), len(rowBlocks))
		}
		seen := make(map[string]bool)
		for b := int32(0); b < int32(cr.Rel.NumBlocks()); b++ {
			lo, hi := cr.Rel.Span(b)
			blk := cr.Blocks[b]
			if int(hi-lo) != len(blk.Facts) {
				t.Fatalf("%s block %d: span has %d rows, aligned block has %d facts", name, b, hi-lo, len(blk.Facts))
			}
			seen[blk.ID] = true
			for i, f := range blk.Facts {
				for col, a := range f.Args {
					got := c.Syms.String(cr.Rel.At(col, lo+int32(i)))
					if got != string(a) {
						t.Fatalf("%s block %d row %d col %d: %q != %q", name, b, i, col, got, a)
					}
				}
			}
		}
		for _, rb := range rowBlocks {
			if !seen[rb.ID] {
				t.Fatalf("%s: row block %s missing from columnar view", name, rb.ID)
			}
		}
	}
}

// TestColumnarBlockByKey compares the interned probe against the
// string-keyed path on every block key plus misses.
func TestColumnarBlockByKey(t *testing.T) {
	d := colTestDB()
	fresh := colTestDB() // never builds a columnar view: the string path
	d.Columnar()
	for _, b := range fresh.Blocks() {
		key := b.Facts[0].Key()
		name := b.Facts[0].Rel.Name
		got, ok := d.BlockByKey(name, key)
		want, wok := fresh.BlockByKey(name, key)
		if ok != wok || got.ID != want.ID || len(got.Facts) != len(want.Facts) {
			t.Fatalf("BlockByKey(%s, %v): columnar (%v, %v) vs row (%v, %v)", name, key, got.ID, ok, want.ID, wok)
		}
	}
	if _, ok := d.BlockByKey("R", []query.Const{"nope"}); ok {
		t.Fatal("columnar probe found a block for an unknown constant")
	}
	if _, ok := d.BlockByKey("R", []query.Const{"a"}); ok {
		t.Fatal("columnar probe found a block for a non-key constant")
	}
	if _, ok := d.BlockByKey("R", []query.Const{"k0", "k1"}); ok {
		t.Fatal("columnar probe matched a key of the wrong length")
	}
	if _, ok := d.BlockByKey("Q", []query.Const{"k0"}); ok {
		t.Fatal("columnar probe found a block of an absent relation")
	}
}

// TestColumnarRejectsConflictingSignature: a relation name has one
// signature, so a fact with a second one never reaches the database —
// Insert rejects it (naming both signatures), Add panics, and the
// columnar view holds every relation with facts.
func TestColumnarRejectsConflictingSignature(t *testing.T) {
	d := New()
	d.Add(NewFact(schema.Relation{Name: "R", Arity: 2, KeyLen: 1}, "a", "b"))
	d.Add(NewFact(schema.Relation{Name: "S", Arity: 2, KeyLen: 1}, "a", "b"))
	before := d.Columnar()
	for _, rel := range []schema.Relation{
		{Name: "R", Arity: 3, KeyLen: 1},                     // arity
		{Name: "R", Arity: 2, KeyLen: 2},                     // key length
		{Name: "R", Arity: 2, KeyLen: 1, Mode: schema.ModeC}, // mode
	} {
		args := []query.Const{"c", "d", "e"}[:rel.Arity]
		added, err := d.Insert(Fact{Rel: rel, Args: args})
		if err == nil || added {
			t.Fatalf("Insert accepted %s next to R[2,1]", rel)
		}
		for _, sig := range []string{"R[2,1]", rel.String()} {
			if !strings.Contains(err.Error(), sig) {
				t.Errorf("error %q does not name %s", err, sig)
			}
		}
	}
	if d.Len() != 2 || d.Columnar() != before {
		t.Fatalf("rejected inserts changed the database: %d facts", d.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add accepted a conflicting signature")
			}
		}()
		d.Add(NewFact(schema.Relation{Name: "R", Arity: 3, KeyLen: 1}, "c", "d", "e"))
	}()
	c := d.Columnar()
	if got := c.RelNames(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Fatalf("RelNames = %v, want [R S]", got)
	}
	if c.Rel("T") != nil {
		t.Fatal("absent relation has a columnar form")
	}
	if sig, ok := d.Signature("R"); !ok || sig != (schema.Relation{Name: "R", Arity: 2, KeyLen: 1}) {
		t.Fatalf("Signature(R) = %v, %v", sig, ok)
	}
	if _, ok := d.Signature("T"); ok {
		t.Fatal("absent relation has a signature")
	}
}

// TestColumnarInvalidation: Add drops the view; the rebuild sees the
// new fact.
func TestColumnarInvalidation(t *testing.T) {
	d := New()
	rel := schema.Relation{Name: "R", Arity: 2, KeyLen: 1}
	d.Add(NewFact(rel, "a", "b"))
	c1 := d.Columnar()
	if cr := c1.Rel("R"); cr.Rel.Rows() != 1 {
		t.Fatalf("view has %d rows, want 1", cr.Rel.Rows())
	}
	d.Add(NewFact(rel, "a", "c"))
	c2 := d.Columnar()
	if c2 == c1 {
		t.Fatal("Add did not invalidate the columnar view")
	}
	cr := c2.Rel("R")
	if cr.Rel.Rows() != 2 || cr.Rel.NumBlocks() != 1 {
		t.Fatalf("rebuilt view: rows=%d blocks=%d, want 2 rows in 1 block", cr.Rel.Rows(), cr.Rel.NumBlocks())
	}
}

// TestColumnarDeterministicLayout: two identically loaded databases
// produce identical symbol assignments and block orders.
func TestColumnarDeterministicLayout(t *testing.T) {
	c1, c2 := colTestDB().Columnar(), colTestDB().Columnar()
	if c1.Syms.Len() != c2.Syms.Len() {
		t.Fatalf("symbol counts differ: %d vs %d", c1.Syms.Len(), c2.Syms.Len())
	}
	for id := 0; id < c1.Syms.Len(); id++ {
		if c1.Syms.String(sym.ID(id)) != c2.Syms.String(sym.ID(id)) {
			t.Fatalf("symbol %d differs: %q vs %q", id, c1.Syms.String(sym.ID(id)), c2.Syms.String(sym.ID(id)))
		}
	}
	for _, name := range c1.RelNames() {
		r1, r2 := c1.Rel(name), c2.Rel(name)
		for b := range r1.Blocks {
			if r1.Blocks[b].ID != r2.Blocks[b].ID {
				t.Fatalf("%s block %d differs: %s vs %s", name, b, r1.Blocks[b].ID, r2.Blocks[b].ID)
			}
		}
	}
}

// TestColumnarFollowsSegmentOrder: after random Apply sequences, span
// i of every derived ColRel holds exactly the facts of the segment's
// block i, in order, and ColRel.Blocks is the segment's own slice.
func TestColumnarFollowsSegmentOrder(t *testing.T) {
	rels := []schema.Relation{relR, relS, schema.NewRelation("T", 3, 2)}
	rng := rand.New(rand.NewSource(17))
	randFact := func() Fact {
		rel := rels[rng.Intn(len(rels))]
		args := make([]query.Const, rel.Arity)
		for i := range args {
			args[i] = query.Const('a' + rune(rng.Intn(5)))
		}
		return Fact{Rel: rel, Args: args}
	}
	for trial := 0; trial < 30; trial++ {
		cur := New()
		for i := 0; i < 4+rng.Intn(12); i++ {
			cur.Add(randFact())
		}
		cur.Columnar()
		for step := 0; step < 8; step++ {
			var delta Delta
			for i := 0; i < 1+rng.Intn(5); i++ {
				switch f := randFact(); rng.Intn(3) {
				case 0:
					delta.Insert(f)
				case 1:
					delta.Delete(f)
				default:
					delta.UpsertBlock([]Fact{f})
				}
			}
			next, err := cur.Apply(delta)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
			c := cur.Columnar()
			for _, name := range cur.Relations() {
				seg, cr := cur.rels[name], c.Rel(name)
				if cr.Rel.NumBlocks() != len(seg.blocks) || len(cr.Blocks) != len(seg.blocks) || &cr.Blocks[0] != &seg.blocks[0] {
					t.Fatalf("trial %d step %d: %s view does not share the segment's %d blocks", trial, step, name, len(seg.blocks))
				}
				for b, blk := range seg.blocks {
					lo, hi := cr.Rel.Span(int32(b))
					if int(hi-lo) != len(blk.Facts) {
						t.Fatalf("trial %d step %d: %s span %d has %d rows, block has %d facts", trial, step, name, b, hi-lo, len(blk.Facts))
					}
					for r, f := range blk.Facts {
						for i, a := range f.Args {
							if got := c.Syms.String(cr.Rel.At(i, lo+int32(r))); got != string(a) {
								t.Fatalf("trial %d step %d: %s span %d row %d col %d = %q, block fact %s", trial, step, name, b, r, i, got, f)
							}
						}
					}
				}
			}
		}
	}
}
