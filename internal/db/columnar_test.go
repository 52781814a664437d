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
// spans aligned with BlocksOf, and every stored argument printing back
// to the original constant.
func TestColumnarMatchesRowView(t *testing.T) {
	d := colTestDB()
	c := d.Columnar()
	if got := d.Relations(); len(got) != 2 {
		t.Fatalf("Relations = %v, want 2 relations", got)
	}
	for _, name := range d.Relations() {
		cr := c.Rel(name)
		if cr == nil {
			t.Fatalf("Rel(%q) = nil, want a columnar relation", name)
		}
		rowBlocks := d.BlocksOf(name)
		if cr.Rel.NumBlocks() != len(rowBlocks) {
			t.Fatalf("%s: %d columnar blocks vs %d row blocks", name, cr.Rel.NumBlocks(), len(rowBlocks))
		}
		seen := make(map[string]bool)
		for b := int32(0); b < int32(cr.Rel.NumBlocks()); b++ {
			lo, hi := cr.Rel.Span(b)
			blk := rowBlocks[b]
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

// TestRelBlockByKeyPositions: a resolved relation's probe returns each
// block's position in BlocksOf, on a cold snapshot and on one whose
// columnar view is built alike, for a 9-column key too, and misses on
// absent keys and relations.
func TestRelBlockByKeyPositions(t *testing.T) {
	wide := schema.Relation{Name: "W", Arity: 10, KeyLen: 9}
	build := func() *DB {
		d := colTestDB()
		for i := 0; i < 5; i++ {
			args := make([]query.Const, wide.Arity)
			for j := range args {
				args[j] = query.Const(fmt.Sprintf("w%d_%d", i, j))
			}
			d.Add(NewFact(wide, args...))
		}
		return d
	}
	warm := build()
	warm.Columnar()
	for _, d := range []*DB{build(), warm} {
		for _, name := range []string{"R", "S", "W"} {
			r := d.Rel(name)
			if !sameBlocks(r.Blocks(), d.BlocksOf(name)) {
				t.Fatalf("Rel(%s).Blocks differs from BlocksOf", name)
			}
			for pos, b := range d.BlocksOf(name) {
				if got, ok := r.BlockByKey(b.Facts[0].Key()); !ok || got != pos {
					t.Errorf("Rel(%s).BlockByKey(%v) = %d, %v; want %d", name, b.Facts[0].Key(), got, ok, pos)
				}
			}
		}
		if _, ok := d.Rel("R").BlockByKey([]query.Const{"nope"}); ok {
			t.Error("probe found a block for an unknown constant")
		}
		if _, ok := d.Rel("W").BlockByKey(make([]query.Const, wide.KeyLen)); ok {
			t.Error("wide probe found a block for an absent key")
		}
		if r := d.Rel("Q"); len(r.Blocks()) != 0 {
			t.Error("an absent relation resolved to blocks")
		} else if _, ok := r.BlockByKey([]query.Const{"k0"}); ok {
			t.Error("probe found a block of an absent relation")
		}
	}
}

func sameBlocks(a, b []Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !sameFacts(a[i].Facts, b[i].Facts) {
			return false
		}
	}
	return true
}

// TestColumnarBlockByKey compares the probe of a snapshot whose
// columnar view is built against a cold one on every block key plus
// misses: building the view changes no probe.
func TestColumnarBlockByKey(t *testing.T) {
	d := colTestDB()
	fresh := colTestDB() // never builds a columnar view
	d.Columnar()
	for _, b := range fresh.Blocks() {
		key := b.Facts[0].Key()
		name := b.Facts[0].Rel.Name
		got, ok := d.BlockByKey(name, key)
		want, wok := fresh.BlockByKey(name, key)
		if ok != wok || got.ID != want.ID || len(got.Facts) != len(want.Facts) {
			t.Fatalf("BlockByKey(%s, %v): warm (%v, %v) vs cold (%v, %v)", name, key, got.ID, ok, want.ID, wok)
		}
	}
	if _, ok := d.BlockByKey("R", []query.Const{"nope"}); ok {
		t.Fatal("warm probe found a block for an unknown constant")
	}
	if _, ok := d.BlockByKey("R", []query.Const{"a"}); ok {
		t.Fatal("warm probe found a block for a non-key constant")
	}
	if _, ok := d.BlockByKey("R", []query.Const{"k0", "k1"}); ok {
		t.Fatal("warm probe matched a key of the wrong length")
	}
	if _, ok := d.BlockByKey("Q", []query.Const{"k0"}); ok {
		t.Fatal("warm probe found a block of an absent relation")
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
	if c.Rel("R") == nil || c.Rel("S") == nil {
		t.Fatal("a relation with facts has no columnar form")
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
	for _, name := range colTestDB().Relations() {
		r1, r2 := c1.Rel(name).Rel, c2.Rel(name).Rel
		if r1.NumBlocks() != r2.NumBlocks() {
			t.Fatalf("%s: %d vs %d blocks", name, r1.NumBlocks(), r2.NumBlocks())
		}
		for b := int32(0); b < int32(r1.NumBlocks()); b++ {
			lo, hi := r1.Span(b)
			if lo2, hi2 := r2.Span(b); lo2 != lo || hi2 != hi {
				t.Fatalf("%s block %d spans differ: [%d,%d) vs [%d,%d)", name, b, lo, hi, lo2, hi2)
			}
			for row := lo; row < hi; row++ {
				for col := 0; col < r1.Arity; col++ {
					if r1.At(col, row) != r2.At(col, row) {
						t.Fatalf("%s block %d row %d col %d differs", name, b, row, col)
					}
				}
			}
		}
	}
}

// TestColumnarFollowsSegmentOrder: after random Apply sequences, span
// i of every derived ColRel holds exactly the facts of the segment's
// block i, in order.
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
				if cr.Rel.NumBlocks() != len(seg.blocks) {
					t.Fatalf("trial %d step %d: %s view has %d spans, segment %d blocks", trial, step, name, cr.Rel.NumBlocks(), len(seg.blocks))
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
