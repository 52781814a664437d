package db

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cqa/internal/query"
	"cqa/internal/schema"
)

// FuzzParseFact: the fact parser must never panic and accepted facts
// must round-trip through String. The input is also parsed as a
// multi-line upload, which must never panic and must keep one signature
// per relation name.
func FuzzParseFact(f *testing.F) {
	for _, seed := range []string{
		"R(a | b)",
		"S(x, y | z)",
		"T#c(k | v)",
		"R(a, b |)",
		"R(a",
		"",
		"R(a,,b)",
		"R(a | b | c)",
		// Conflicting signatures under one name: arity, key, mode.
		"R(a, b | c)\nR(a | b)",
		"R(a | b)\nR(q, r, s | t)",
		"R(a | b)\nR#c(a | b)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if d, err := ParseFacts(nil, s); err == nil {
			for _, g := range d.Facts() {
				if sig, ok := d.Signature(g.Rel.Name); !ok || sig != g.Rel {
					t.Fatalf("upload %q stores %s under signature %v", s, g, sig)
				}
			}
		}
		fact, err := ParseFact(nil, s)
		if err != nil {
			return
		}
		back, err := ParseFact(nil, fact.String())
		if err != nil {
			t.Fatalf("round trip parse failed: %q -> %q: %v", s, fact.String(), err)
		}
		if !fact.Equal(back) {
			t.Fatalf("round trip changed fact: %q -> %q -> %q", s, fact.String(), back.String())
		}
		// Parse → intern → print round trip: the columnar view of a
		// database holding the fact must intern every constant so it
		// prints back identically, and the ground-key probe of the
		// warmed snapshot must find the fact's block.
		d := FromFacts(fact)
		c := d.Columnar()
		n := c.Syms.Len()
		for _, a := range fact.Args {
			id := c.Syms.Intern(string(a))
			if c.Syms.Len() != n {
				t.Fatalf("constant %q of %q not interned", a, fact.String())
			}
			if got := c.Syms.String(id); got != string(a) {
				t.Fatalf("intern round trip changed %q to %q", a, got)
			}
		}
		blk, ok := d.BlockByKey(fact.Rel.Name, fact.Key())
		if !ok || len(blk.Facts) != 1 || !blk.Facts[0].Equal(fact) {
			t.Fatalf("warm BlockByKey lost %q: ok=%v block=%v", fact.String(), ok, blk)
		}
	})
}

// fuzzRels are FuzzApply's relations: a simple key, a composite key,
// and a relation whose whole tuple is the key (every block a singleton).
var fuzzRels = []schema.Relation{relR, relS, schema.NewRelation("T", 2, 2)}

// fuzzFact decodes one byte into a fact: relation b%3, key b/3%3, value
// b/9%4, so a few bytes already collide on blocks and facts, and a block
// can outgrow the spare capacity Add leaves in its fact slice.
func fuzzFact(b byte) Fact {
	rel := fuzzRels[b%3]
	args := make([]query.Const, rel.Arity)
	for i := range args {
		args[i] = "x"
	}
	args[0] = query.Const(fmt.Sprint("k", b/3%3))
	args[rel.Arity-1] = query.Const(fmt.Sprint("v", b/9%4))
	return NewFact(rel, args...)
}

// applyModel is the expected effect of a delta, worked out op by op
// with no code shared with Apply: every block's facts (a block an op
// emptied keeps its entry, empty), each relation's block IDs in position
// order, the relation order, and the blocks an effective op changed.
type applyModel struct {
	facts   map[string][]Fact
	order   map[string][]string
	rels    []string
	changed map[string]bool
	stats   ApplyStats
}

func newApplyModel(d *DB) *applyModel {
	m := &applyModel{facts: map[string][]Fact{}, order: map[string][]string{}, changed: map[string]bool{}}
	for _, name := range d.RelationOrder() {
		m.rels = append(m.rels, name)
		for _, b := range d.BlocksOf(name) {
			m.order[name] = append(m.order[name], b.ID)
			m.facts[b.ID] = b.Facts
		}
	}
	return m
}

func factIndex(fs []Fact, f Fact) int {
	for i, g := range fs {
		if g.String() == f.String() {
			return i
		}
	}
	return -1
}

// set records an effective op: block f's facts become fs.
func (m *applyModel) set(f Fact, fs []Fact) {
	bid, name := f.BlockID(), f.Rel.Name
	if _, ok := m.facts[bid]; !ok {
		if !slices.Contains(m.rels, name) {
			m.rels = append(m.rels, name)
		}
		m.order[name] = append(m.order[name], bid)
	}
	m.facts[bid] = fs
	m.changed[bid] = true
}

func (m *applyModel) apply(op Op) {
	switch op.Kind {
	case OpInsert:
		cur := m.facts[op.Fact.BlockID()]
		if factIndex(cur, op.Fact) >= 0 {
			m.stats.Noops++
			return
		}
		m.stats.Inserted++
		m.set(op.Fact, append(append([]Fact(nil), cur...), op.Fact))
	case OpDelete:
		cur := m.facts[op.Fact.BlockID()]
		i := factIndex(cur, op.Fact)
		if i < 0 {
			m.stats.Noops++
			return
		}
		m.stats.Deleted++
		m.set(op.Fact, append(append([]Fact(nil), cur[:i]...), cur[i+1:]...))
	case OpUpsert:
		var fs []Fact
		for _, f := range op.Block {
			if factIndex(fs, f) < 0 {
				fs = append(fs, f)
			}
		}
		cur := m.facts[fs[0].BlockID()]
		same := len(cur) == len(fs)
		for _, f := range fs {
			same = same && factIndex(cur, f) >= 0
		}
		if same {
			m.stats.Noops++
			return
		}
		m.stats.Deleted += len(cur)
		m.stats.Inserted += len(fs)
		m.stats.Upserts++
		m.set(fs[0], fs)
	}
}

// blocks lists a relation's non-empty blocks in position order.
func (m *applyModel) blocks(name string) []Block {
	var out []Block
	for _, bid := range m.order[name] {
		if fs := m.facts[bid]; len(fs) > 0 {
			out = append(out, Block{ID: bid, Facts: fs})
		}
	}
	return out
}

func blockStrings(bs []Block) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = fmt.Sprint(b.ID, b.Facts)
	}
	return out
}

// colLayout renders a relation's columnar view span by span.
func colLayout(c *ColDB, name string) string {
	cr := c.Rel(name)
	if cr == nil {
		return ""
	}
	var b strings.Builder
	for s := int32(0); s < int32(cr.Rel.NumBlocks()); s++ {
		lo, hi := cr.Rel.Span(s)
		for row := lo; row < hi; row++ {
			for col := 0; col < cr.Rel.Arity; col++ {
				b.WriteString(c.Syms.String(cr.Rel.At(col, row)) + ",")
			}
			b.WriteByte(';')
		}
		b.WriteByte('|')
	}
	return b.String()
}

// FuzzApply decodes its input into a small database and up to a dozen
// ops over three relations, cut into one or more deltas, and checks
// each Apply against a model: the blocks of every relation (surviving
// blocks keep their positions, added blocks append, facts keep their
// order), a rebuild from the expected facts, the ApplyStats counts, the
// ChangeSet, the receiver left unchanged (and returned when nothing
// changed), the child isolated from a later Add to the receiver, and
// the derived columnar view equal to a fresh build.
//
// Input: byte 0 holds flags (bit 0 warms the columnar view, bits 1-3
// count the initial facts, one byte each, that follow); then two bytes
// per op: kind (b%3: insert, delete, upsert; bit 3 adds a key-equal
// second fact to an upsert block; bit 7 ends the delta) and fact.
func FuzzApply(f *testing.F) {
	for _, seed := range [][]byte{
		{0},
		{1<<1 | 1, 0, 0, 0},
		{3<<1 | 1, 0, 3, 10, 0, 9, 1, 0, 2, 12, 8, 1},
		{2 << 1, 0, 1, 1, 0, 0, 1, 128, 0, 2, 0},
		{7<<1 | 1, 0, 1, 2, 3, 4, 5, 6, 0, 30, 1, 1, 2, 9, 10, 2, 128, 30, 1, 30, 0, 30},
		{1 << 1, 5, 2, 5, 2, 14, 0, 5, 1, 14},
		{4<<1 | 1, 0, 9, 18, 3, 1, 0, 1, 9, 1, 18, 0, 0, 2, 27, 10, 27},
		// A block of three facts (spare capacity for a fourth) widened by
		// the delta, then by a sibling Apply.
		{3 << 1, 0, 9, 18, 0, 27},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		flags := data[0]
		data = data[1:]
		n0 := min(int(flags>>1&7), len(data))
		cur := New()
		for _, b := range data[:n0] {
			cur.Add(fuzzFact(b))
		}
		data = data[n0:]
		if flags&1 != 0 {
			cur.Columnar()
		}
		var delta Delta
		for i := 0; i+1 < len(data) && i < 24; i += 2 {
			kind, fact := data[i], fuzzFact(data[i+1])
			switch kind % 3 {
			case 0:
				delta.Insert(fact)
			case 1:
				delta.Delete(fact)
			case 2:
				blk := []Fact{fact}
				if kind&8 != 0 {
					g := fuzzFact(data[i+1] + 9)
					if g.KeyEqual(fact) {
						blk = append(blk, g)
					}
				}
				delta.UpsertBlock(blk)
			}
			if kind&128 != 0 || i+3 >= len(data) || i+2 >= 24 {
				cur = checkApply(t, cur, delta)
				delta = Delta{}
			}
		}
	})
}

// checkApply applies delta to d, checks the child against the model and
// returns it.
func checkApply(t *testing.T, d *DB, delta Delta) *DB {
	t.Helper()
	m := newApplyModel(d)
	parent := newApplyModel(d)
	before := d.String()
	warm := d.colMemo.Load() != nil
	for _, op := range delta.Ops {
		m.apply(op)
	}
	child, res, err := d.ApplyChanges(delta)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if d.String() != before {
		t.Fatalf("Apply changed the receiver:\n%s\nwas\n%s", d, before)
	}

	// The ChangeSet and the block counts, from the model.
	want := m.stats
	for _, name := range m.rels {
		var added, removed, modified []string
		for _, b := range m.blocks(name) {
			if _, ok := parent.facts[b.ID]; !ok {
				added = append(added, fmt.Sprint(b.ID, b.Facts))
			} else if m.changed[b.ID] {
				modified = append(modified, fmt.Sprint(b.ID, b.Facts))
			}
		}
		for _, b := range parent.blocks(name) {
			if len(m.facts[b.ID]) == 0 {
				removed = append(removed, fmt.Sprint(b.ID, b.Facts))
			}
		}
		rc := res.Changes.Rels[name]
		if len(added)+len(removed)+len(modified) == 0 {
			if rc != nil {
				t.Fatalf("%s: change recorded for a relation that netted out: %+v", name, rc)
			}
			continue
		}
		if rc == nil {
			t.Fatalf("%s: no change recorded, want added %v removed %v modified %v", name, added, removed, modified)
		}
		want.Rels = append(want.Rels, name)
		want.BlocksAdded += len(added)
		want.BlocksRemoved += len(removed)
		want.BlocksModified += len(modified)
		// Added in append order; Removed and Modified as sets.
		if got := blockStrings(rc.Added); !slices.Equal(got, added) {
			t.Fatalf("%s: Added = %v, want %v", name, got, added)
		}
		if got := blockStrings(rc.Removed); !sameStringSets(got, removed) {
			t.Fatalf("%s: Removed = %v, want %v", name, got, removed)
		}
		if got := blockStrings(rc.Modified); !sameStringSets(got, modified) {
			t.Fatalf("%s: Modified = %v, want %v", name, got, modified)
		}
	}
	sort.Strings(want.Rels)
	if got := res.Stats; !reflect.DeepEqual(got, want) {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if len(want.Rels) == 0 {
		if child != d {
			t.Fatal("a delta with no net change did not return the receiver")
		}
		return d
	}

	// Block positions and fact order, relation by relation, and a rebuild
	// from the expected facts.
	var facts []Fact
	for _, name := range m.rels {
		blocks := m.blocks(name)
		if got, want := blockStrings(child.BlocksOf(name)), blockStrings(blocks); !slices.Equal(got, want) {
			t.Fatalf("%s blocks = %v, want %v", name, got, want)
		}
		for _, b := range blocks {
			facts = append(facts, b.Facts...)
		}
	}
	rebuilt := FromFacts(facts...)
	if child.String() != rebuilt.String() || child.Len() != rebuilt.Len() || child.NumBlocks() != rebuilt.NumBlocks() {
		t.Fatalf("child (%d facts, %d blocks):\n%s\nrebuild (%d facts, %d blocks):\n%s",
			child.Len(), child.NumBlocks(), child, rebuilt.Len(), rebuilt.NumBlocks(), rebuilt)
	}

	// The derived columnar view equals a fresh build of the child.
	if warm && child.colMemo.Load() == nil {
		t.Fatal("Apply dropped the warm columnar view")
	}
	cc, fresh := child.Columnar(), child.buildColumnar()
	for _, name := range m.rels {
		if got, want := colLayout(cc, name), colLayout(fresh, name); got != want {
			t.Fatalf("%s columnar = %s, want %s", name, got, want)
		}
	}

	// Later writes to the receiver, a sibling Apply and then an Add per
	// fact, do not reach the child.
	snapshot := child.String()
	var sibling Delta
	for _, f := range facts {
		g := f
		g.Args = append([]query.Const(nil), f.Args...)
		g.Args[len(g.Args)-1] = "w"
		sibling.Insert(g)
	}
	if _, err := d.Apply(sibling); err != nil {
		t.Fatal(err)
	}
	for _, op := range sibling.Ops {
		d.Add(op.Fact)
	}
	if child.String() != snapshot {
		t.Fatalf("writes to the receiver changed the child:\n%s\nwas\n%s", child, snapshot)
	}
	return child
}
