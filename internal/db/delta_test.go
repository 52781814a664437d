package db

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/sym"
)

// TestAddDuplicateKeepsCaches pins the no-op contract of duplicate
// inserts: Add must decide the duplicate before touching any state, so
// the memoized columnar view stays valid (a serving snapshot replaying
// an idempotent write must not lose its warm view).
func TestAddDuplicateKeepsCaches(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relR, "a", "2"),
		NewFact(relS, "x", "y", "z"),
	)
	col := d.Columnar()
	if d.Add(NewFact(relR, "a", "2")) {
		t.Fatal("duplicate add reported true")
	}
	if d.Columnar() != col {
		t.Error("duplicate add invalidated the columnar view")
	}
	// A genuinely new fact still invalidates.
	if !d.Add(NewFact(relR, "a", "3")) {
		t.Fatal("new add reported false")
	}
	if d.Columnar() == col {
		t.Error("real add did not invalidate the columnar view")
	}
}

func TestApplyInsertDeleteUpsert(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relR, "a", "2"),
		NewFact(relR, "b", "1"),
		NewFact(relS, "x", "y", "z"),
	)
	var delta Delta
	delta.Insert(NewFact(relR, "c", "9"))                   // new block
	delta.Insert(NewFact(relR, "a", "3"))                   // widen existing block
	delta.Insert(NewFact(relR, "a", "1"))                   // duplicate: noop
	delta.Delete(NewFact(relR, "b", "1"))                   // empties block b
	delta.Delete(NewFact(relR, "zz", "0"))                  // absent: noop
	delta.UpsertBlock([]Fact{NewFact(relS, "x", "y", "w")}) // replace block

	child, res, err := d.ApplyChanges(delta)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Inserted != 3 || st.Deleted != 2 || st.Upserts != 1 || st.Noops != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.BlocksAdded != 1 || st.BlocksRemoved != 1 || st.BlocksModified != 2 {
		t.Errorf("block stats = %+v", st)
	}
	wantRels := []string{"R", "S"}
	if len(st.Rels) != 2 || st.Rels[0] != wantRels[0] || st.Rels[1] != wantRels[1] {
		t.Errorf("Rels = %v", st.Rels)
	}

	// Parent unchanged.
	if d.Len() != 4 || d.NumBlocks() != 3 {
		t.Errorf("parent mutated: len=%d blocks=%d", d.Len(), d.NumBlocks())
	}
	if !d.Has(NewFact(relR, "b", "1")) || d.Has(NewFact(relR, "c", "9")) {
		t.Error("parent contents changed")
	}

	// Child contents.
	if child.Len() != 5 || child.NumBlocks() != 3 {
		t.Errorf("child len=%d blocks=%d", child.Len(), child.NumBlocks())
	}
	for _, f := range []Fact{
		NewFact(relR, "a", "1"), NewFact(relR, "a", "2"), NewFact(relR, "a", "3"),
		NewFact(relR, "c", "9"), NewFact(relS, "x", "y", "w"),
	} {
		if !child.Has(f) {
			t.Errorf("child missing %s", f)
		}
	}
	if child.Has(NewFact(relR, "b", "1")) || child.Has(NewFact(relS, "x", "y", "z")) {
		t.Error("child kept removed facts")
	}
	if blk, ok := child.BlockByKey("R", []query.Const{"a"}); !ok || len(blk.Facts) != 3 {
		t.Errorf("child block a = %v %v", blk, ok)
	}
}

func TestApplyStructuralSharing(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relS, "x", "y", "z"),
		NewFact(relS, "u", "v", "w"),
	)
	sBlocks := d.BlocksOf("S")
	var delta Delta
	delta.Insert(NewFact(relR, "b", "2"))
	child, err := d.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	// Untouched relation aliases the parent's segment wholesale.
	cs := child.BlocksOf("S")
	if &cs[0] != &sBlocks[0] {
		t.Error("untouched relation was copied, not aliased")
	}
	// Touched relation got its own block slice.
	pr, cr := d.BlocksOf("R"), child.BlocksOf("R")
	if len(pr) != 1 || len(cr) != 2 {
		t.Fatalf("R blocks: parent %d child %d", len(pr), len(cr))
	}
	if &pr[0] == &cr[0] {
		t.Error("touched relation still aliases the parent")
	}
}

// TestApplySiblingIsolation derives two children from one parent, each
// widening the same block: the copy-on-write discipline must keep the
// three versions' fact slices independent.
func TestApplySiblingIsolation(t *testing.T) {
	d := FromFacts(NewFact(relR, "a", "1"))
	var d1, d2 Delta
	d1.Insert(NewFact(relR, "a", "2"))
	d2.Insert(NewFact(relR, "a", "3"))
	c1, err := d.Apply(d1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := d.Apply(d2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, db *DB, want []string) {
		blk, ok := db.BlockByKey("R", []query.Const{"a"})
		if !ok || len(blk.Facts) != len(want) {
			t.Fatalf("%s: block a has %d facts, want %d", name, len(blk.Facts), len(want))
		}
		for i, w := range want {
			if string(blk.Facts[i].Args[1]) != w {
				t.Errorf("%s: fact %d = %s, want value %s", name, i, blk.Facts[i], w)
			}
		}
	}
	check("parent", d, []string{"1"})
	check("child1", c1, []string{"1", "2"})
	check("child2", c2, []string{"1", "3"})

	// Continuing to Add on the parent must not corrupt either child.
	if !d.Add(NewFact(relR, "a", "4")) {
		t.Fatal("parent add failed")
	}
	check("parent", d, []string{"1", "4"})
	check("child1", c1, []string{"1", "2"})
	check("child2", c2, []string{"1", "3"})
}

func TestApplyNettedOutReturnsReceiver(t *testing.T) {
	d := FromFacts(NewFact(relR, "a", "1"), NewFact(relS, "x", "y", "z"))
	var delta Delta
	delta.Insert(NewFact(relR, "a", "1"))                   // duplicate
	delta.Insert(NewFact(relR, "q", "7"))                   // new...
	delta.Delete(NewFact(relR, "q", "7"))                   // ...netted out
	delta.UpsertBlock([]Fact{NewFact(relS, "x", "y", "z")}) // same contents
	child, res, err := d.ApplyChanges(delta)
	if err != nil {
		t.Fatal(err)
	}
	if child != d {
		t.Error("no-net-change delta should return the receiver")
	}
	if !res.Changes.Empty() {
		t.Errorf("changes not empty: %+v", res.Changes)
	}
	if res.Stats.Noops != 2 {
		t.Errorf("noops = %d", res.Stats.Noops)
	}

	var empty Delta
	if child, err := d.Apply(empty); err != nil || child != d {
		t.Error("empty delta should return the receiver")
	}
}

// TestApplyNoopCostsDelta pins the cost of an op with no effect on a
// 25,000-block relation: a delete of an absent fact, a duplicate insert
// and an identical upsert each return the receiver and allocate O(delta)
// bytes, not a clone of the relation's block list and key table (about
// 1.9 MB).
func TestApplyNoopCostsDelta(t *testing.T) {
	d := New()
	for i := 0; i < 25000; i++ {
		d.Add(NewFact(relR, query.Const(fmt.Sprint("k", i)), "v"))
	}
	var absent, dup, same Delta
	absent.Delete(NewFact(relR, "k7", "w"))
	dup.Insert(NewFact(relR, "k7", "v"))
	same.UpsertBlock([]Fact{NewFact(relR, "k7", "v")})
	const runs, bound = 50, 4 << 10
	for _, tc := range []struct {
		name  string
		delta Delta
	}{{"absent delete", absent}, {"duplicate insert", dup}, {"identical upsert", same}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			child, err := d.Apply(tc.delta)
			if err != nil || child != d {
				t.Fatalf("%s: Apply = %p, %v; want the receiver", tc.name, child, err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d B/op", tc.name, per)
		if per > bound {
			t.Errorf("%s: %d B/op, want at most %d", tc.name, per, bound)
		}
	}
}

func TestApplyTombstoneCompaction(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relR, "b", "1"),
		NewFact(relR, "c", "1"),
	)
	var delta Delta
	delta.Delete(NewFact(relR, "b", "1"))
	child, res, err := d.ApplyChanges(delta)
	if err != nil {
		t.Fatal(err)
	}
	if child.NumBlocks() != 2 || child.Len() != 2 {
		t.Errorf("child blocks=%d len=%d", child.NumBlocks(), child.Len())
	}
	blocks := child.BlocksOf("R")
	if len(blocks) != 2 {
		t.Fatalf("block list not compacted: %d entries", len(blocks))
	}
	// Survivors keep first-seen order and remain key-addressable.
	if string(blocks[0].Facts[0].Args[0]) != "a" || string(blocks[1].Facts[0].Args[0]) != "c" {
		t.Errorf("survivor order: %v", blocks)
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := child.BlockByKey("R", []query.Const{query.Const(k)}); !ok {
			t.Errorf("key %s lost after compaction", k)
		}
	}
	if _, ok := child.BlockByKey("R", []query.Const{"b"}); ok {
		t.Error("removed key still resolvable")
	}
	rc := res.Changes.Rels["R"]
	if rc == nil || len(rc.Removed) != 1 || len(rc.Added) != 0 || len(rc.Modified) != 0 {
		t.Errorf("change set = %+v", rc)
	}
}

func TestApplyChangeSetClassification(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relR, "b", "1"),
	)
	var delta Delta
	delta.Insert(NewFact(relR, "c", "1")) // added block
	delta.Insert(NewFact(relR, "a", "2")) // modified block
	delta.Delete(NewFact(relR, "b", "1")) // removed block
	_, res, err := d.ApplyChanges(delta)
	if err != nil {
		t.Fatal(err)
	}
	rc := res.Changes.Rels["R"]
	if rc == nil {
		t.Fatal("no change recorded for R")
	}
	if len(rc.Added) != 1 || string(rc.Added[0].Facts[0].Args[0]) != "c" {
		t.Errorf("Added = %v", rc.Added)
	}
	if len(rc.Removed) != 1 || string(rc.Removed[0].Facts[0].Args[0]) != "b" {
		t.Errorf("Removed = %v", rc.Removed)
	}
	if len(rc.Modified) != 1 || len(rc.Modified[0].Facts) != 2 {
		t.Errorf("Modified = %v", rc.Modified)
	}
}

func TestApplyNewRelation(t *testing.T) {
	d := FromFacts(NewFact(relR, "a", "1"))
	relT := schema.NewRelation("T", 2, 1)
	var delta Delta
	delta.Insert(NewFact(relT, "t1", "v"))
	delta.UpsertBlock([]Fact{NewFact(relT, "t2", "v1"), NewFact(relT, "t2", "v2")})
	child, err := d.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	if got := child.Relations(); len(got) != 2 || got[0] != "R" || got[1] != "T" {
		t.Errorf("relations = %v", got)
	}
	if child.Len() != 4 || child.NumBlocks() != 3 {
		t.Errorf("len=%d blocks=%d", child.Len(), child.NumBlocks())
	}
	if d.rels["T"] != nil {
		t.Error("new relation leaked into the parent")
	}
	// Deleting the last fact of a relation empties it cleanly.
	var wipe Delta
	wipe.Delete(NewFact(relR, "a", "1"))
	c2, err := child.Apply(wipe)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Relations(); len(got) != 1 || got[0] != "T" {
		t.Errorf("relations after wipe = %v", got)
	}
}

func TestApplyValidate(t *testing.T) {
	d := FromFacts(NewFact(relR, "a", "1"))
	bad := Delta{Ops: []Op{{Kind: OpUpsert}}}
	if _, err := d.Apply(bad); err == nil {
		t.Error("empty upsert block accepted")
	}
	mixed := Delta{Ops: []Op{{Kind: OpUpsert, Block: []Fact{
		NewFact(relR, "a", "1"), NewFact(relR, "b", "1"),
	}}}}
	if _, err := d.Apply(mixed); err == nil {
		t.Error("key-mixing upsert block accepted")
	}
	if err := mixed.Validate(); err == nil {
		t.Error("Validate missed the key mix")
	}
	// Every op must carry the stored signature of its relation; the
	// failed Apply publishes nothing, so the receiver is untouched.
	wide := schema.Relation{Name: "R", Arity: 4, KeyLen: 3}
	for _, conflict := range []Delta{
		{Ops: []Op{{Kind: OpInsert, Fact: NewFact(wide, "q", "r", "s", "t")}}},
		{Ops: []Op{{Kind: OpDelete, Fact: NewFact(wide, "q", "r", "s", "t")}}},
		{Ops: []Op{{Kind: OpUpsert, Block: []Fact{NewFact(wide, "q", "r", "s", "t")}}}},
	} {
		_, err := d.Apply(conflict)
		if err == nil || !strings.Contains(err.Error(), "R[4,3]") || !strings.Contains(err.Error(), "R[2,1]") {
			t.Errorf("conflicting %v: err = %v, want both signatures named", conflict.Ops[0].Kind, err)
		}
	}
	if d.Len() != 1 {
		t.Errorf("rejected deltas changed the receiver: %d facts", d.Len())
	}
	// A new relation takes the signature of its first fact; a second
	// signature in the same delta, or in one upsert block, is rejected.
	fresh := schema.Relation{Name: "N", Arity: 2, KeyLen: 1}
	var twoSigs Delta
	twoSigs.Insert(NewFact(fresh, "a", "1"))
	twoSigs.Insert(NewFact(schema.Relation{Name: "N", Arity: 3, KeyLen: 1}, "a", "1", "2"))
	if _, err := d.Apply(twoSigs); err == nil {
		t.Error("delta giving a new relation two signatures accepted")
	}
	sigMix := Delta{Ops: []Op{{Kind: OpUpsert, Block: []Fact{
		NewFact(fresh, "a", "1"), NewFact(schema.Relation{Name: "N", Arity: 2, KeyLen: 1, Mode: schema.ModeC}, "a", "2"),
	}}}}
	if err := sigMix.Validate(); err == nil {
		t.Error("Validate missed an upsert block mixing signatures")
	}

	var ok Delta
	ok.UpsertBlock([]Fact{NewFact(relR, "a", "1"), NewFact(relR, "a", "1")})
	child, err := d.Apply(ok)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate facts inside an upsert block collapse, making it a no-op
	// replacement of the existing singleton.
	if child != d {
		t.Error("idempotent upsert with internal duplicates should net out")
	}
}

func TestApplyDerivedFactsOrder(t *testing.T) {
	d := FromFacts(
		NewFact(relS, "x", "y", "z"),
		NewFact(relR, "a", "1"),
		NewFact(relR, "a", "2"),
	)
	var delta Delta
	delta.Insert(NewFact(relR, "b", "1"))
	child, err := d.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	// Facts() lists relations in first-seen order: S first (it was added
	// first), then R's blocks in order.
	got := child.Facts()
	want := []string{"S(x, y | z)", "R(a | 1)", "R(a | 2)", "R(b | 1)"}
	if len(got) != len(want) {
		t.Fatalf("facts = %v", got)
	}
	for i, w := range want {
		if got[i].String() != w {
			t.Errorf("fact %d = %s, want %s", i, got[i], w)
		}
	}
	// The String form must re-parse to an equal database.
	s := schema.NewSchema()
	reparsed, err := ParseFacts(s, child.String())
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.Len() != child.Len() {
		t.Errorf("round trip lost facts: %d vs %d", reparsed.Len(), child.Len())
	}
}

// TestApplyColumnarDerive checks that Apply patches a built columnar
// view incrementally: untouched relations alias the parent's ColRel,
// touched relations resplice, and the result answers identically to a
// cold rebuild.
func TestApplyColumnarDerive(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relR, "a", "2"),
		NewFact(relR, "b", "1"),
		NewFact(relS, "x", "y", "z"),
		NewFact(relS, "u", "v", "w"),
	)
	pc := d.Columnar()
	var delta Delta
	delta.Insert(NewFact(relR, "c", "5"))
	delta.Delete(NewFact(relR, "b", "1"))
	delta.Insert(NewFact(relR, "a", "3"))
	child, err := d.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	cc := child.colMemo.Load()
	if cc == nil {
		t.Fatal("Apply did not derive the columnar view")
	}
	if cc.Syms != pc.Syms {
		t.Error("derived view does not share the symbol table")
	}
	pS := pc.Rel("S")
	cS := cc.Rel("S")
	if pS != cS {
		t.Error("untouched relation's ColRel was rebuilt, not aliased")
	}
	pR := pc.Rel("R")
	cR := cc.Rel("R")
	if pR == cR {
		t.Error("touched relation still aliases the parent's ColRel")
	}
	if cR.Rel.NumBlocks() != 2 || cR.Rel.Rows() != 4 {
		t.Errorf("spliced R: %d blocks %d rows", cR.Rel.NumBlocks(), cR.Rel.Rows())
	}
	// The derived view answers like a cold rebuild.
	cold := child.buildColumnar()
	for _, name := range []string{"R", "S"} {
		if got, want := colRelContents(cc, name), colRelContents(cold, name); !sameStringSets(got, want) {
			t.Errorf("%s: derived %v vs rebuilt %v", name, got, want)
		}
	}
	// The derived view's key table, the one the FO walk probes, agrees
	// with the child segment's: same hits, at the same positions.
	seg := child.rels["R"]
	for _, key := range []string{"a", "b", "c"} {
		span, ok := cR.Rel.BlockByKey([]sym.ID{cc.Syms.Intern(key)})
		pos, rowOK := seg.byID[NewFact(relR, query.Const(key), "_").BlockID()]
		if ok != rowOK || (ok && int(span) != pos) {
			t.Errorf("probe %s: view (%d, %v) vs segment (%d, %v)", key, span, ok, pos, rowOK)
		}
	}
}

// colRelContents decodes a relation's columnar rows back to fact
// strings for comparison.
func colRelContents(c *ColDB, name string) []string {
	cr := c.Rel(name)
	if cr == nil {
		return nil
	}
	var out []string
	for b := int32(0); b < int32(cr.Rel.NumBlocks()); b++ {
		lo, hi := cr.Rel.Span(b)
		for row := lo; row < hi; row++ {
			s := ""
			for col := 0; col < cr.Rel.Arity; col++ {
				s += c.Syms.String(cr.Rel.At(col, row)) + ","
			}
			out = append(out, s)
		}
	}
	return out
}

func sameStringSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestApplyMatchesRebuild drives randomized mutation scripts through
// Apply chains and checks the final version is fact-for-fact identical
// to a cold FromFacts rebuild, including block structure and derived
// views.
func TestApplyMatchesRebuild(t *testing.T) {
	relT := schema.NewRelation("T", 3, 1)
	rels := []schema.Relation{relR, relS, relT}
	rng := rand.New(rand.NewSource(7))
	randFact := func() Fact {
		rel := rels[rng.Intn(len(rels))]
		args := make([]query.Const, rel.Arity)
		for i := range args {
			args[i] = query.Const('a' + rune(rng.Intn(6)))
		}
		return Fact{Rel: rel, Args: args}
	}
	for trial := 0; trial < 40; trial++ {
		cur := New()
		for i := 0; i < 5+rng.Intn(10); i++ {
			cur.Add(randFact())
		}
		if trial%3 == 0 {
			cur.Columnar() // exercise the derive path on some trials
		}
		ref := make(map[string]Fact)
		for _, f := range cur.Facts() {
			ref[f.ID()] = f
		}
		for step := 0; step < 4; step++ {
			var delta Delta
			for i := 0; i < 1+rng.Intn(6); i++ {
				f := randFact()
				switch rng.Intn(3) {
				case 0:
					delta.Insert(f)
					ref[f.ID()] = f
				case 1:
					delta.Delete(f)
					delete(ref, f.ID())
				case 2:
					blk := []Fact{f}
					if rng.Intn(2) == 0 {
						g := f
						g.Args = append([]query.Const(nil), f.Args...)
						g.Args[len(g.Args)-1] = "zz"
						blk = append(blk, g)
					}
					// Upsert drops every current member of the block first.
					for id, old := range ref {
						if old.KeyEqual(f) {
							delete(ref, id)
						}
					}
					for _, g := range blk {
						ref[g.ID()] = g
					}
					delta.UpsertBlock(blk)
				}
			}
			next, err := cur.Apply(delta)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		want := make([]Fact, 0, len(ref))
		for _, f := range ref {
			want = append(want, f)
		}
		rebuilt := FromFacts(want...)
		if cur.Len() != rebuilt.Len() || cur.NumBlocks() != rebuilt.NumBlocks() {
			t.Fatalf("trial %d: applied len=%d blocks=%d, rebuilt len=%d blocks=%d",
				trial, cur.Len(), cur.NumBlocks(), rebuilt.Len(), rebuilt.NumBlocks())
		}
		for _, f := range rebuilt.Facts() {
			if !cur.Has(f) {
				t.Fatalf("trial %d: applied version missing %s", trial, f)
			}
		}
		if cur.Consistent() != rebuilt.Consistent() {
			t.Fatalf("trial %d: consistency disagrees", trial)
		}
		// Block-by-block comparison through the key probe.
		for _, b := range rebuilt.Blocks() {
			got := cur.BlockOf(b.Facts[0])
			if !sameFactSet(got.Facts, b.Facts) {
				t.Fatalf("trial %d: block %q differs: %v vs %v", trial, b.ID, got.Facts, b.Facts)
			}
		}
		// Columnar views agree with their own cold rebuilds.
		cc := cur.Columnar()
		cold := cur.buildColumnar()
		for _, name := range cur.Relations() {
			if got, want := colRelContents(cc, name), colRelContents(cold, name); !sameStringSets(got, want) {
				t.Fatalf("trial %d: columnar %s differs", trial, name)
			}
		}
	}
}
