package colstore

import (
	"fmt"
	"testing"

	"cqa/internal/sym"
)

// buildRel interns the string rows into a fresh table and builds the
// relation; rows of one block are passed together.
func buildRel(t *testing.T, name string, arity, keyLen int, blocks [][][]string) (*Rel, *sym.Table) {
	t.Helper()
	tb := sym.NewTable()
	b := NewBuilder(name, arity, keyLen)
	row := make([]sym.ID, arity)
	for _, blk := range blocks {
		b.StartBlock()
		for _, r := range blk {
			for i, s := range r {
				row[i] = tb.Intern(s)
			}
			b.AddRow(row)
		}
	}
	return b.Build(), tb
}

func TestSpansAndColumns(t *testing.T) {
	r, tb := buildRel(t, "R", 2, 1, [][][]string{
		{{"a", "1"}, {"a", "2"}},
		{{"b", "1"}},
		{{"c", "3"}, {"c", "4"}, {"c", "5"}},
	})
	if r.Rows() != 6 || r.NumBlocks() != 3 {
		t.Fatalf("Rows=%d NumBlocks=%d, want 6 and 3", r.Rows(), r.NumBlocks())
	}
	wantSpans := [][2]int32{{0, 2}, {2, 3}, {3, 6}}
	for b, w := range wantSpans {
		lo, hi := r.Span(int32(b))
		if lo != w[0] || hi != w[1] {
			t.Fatalf("Span(%d) = [%d,%d), want [%d,%d)", b, lo, hi, w[0], w[1])
		}
	}
	wantCol1 := []string{"1", "2", "1", "3", "4", "5"}
	for row, w := range wantCol1 {
		if got := tb.String(r.At(1, int32(row))); got != w {
			t.Fatalf("At(1,%d) = %q, want %q", row, got, w)
		}
	}
	if got := tb.String(r.Col(0)[4]); got != "c" {
		t.Fatalf("Col(0)[4] = %q, want c", got)
	}
}

func TestBlockByKey(t *testing.T) {
	// Enough blocks that the table sees real probe chains.
	var blocks [][][]string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		blocks = append(blocks, [][]string{{k, "v"}, {k, "w"}})
	}
	r, tb := buildRel(t, "R", 2, 1, blocks)
	for i := 0; i < 100; i++ {
		id := mustLookup(t, tb, fmt.Sprintf("k%d", i))
		b, found := r.BlockByKey([]sym.ID{id})
		if !found || int(b) != i {
			t.Fatalf("BlockByKey(k%d) = (%d, %v), want (%d, true)", i, b, found, i)
		}
	}
	// A value ID that is interned but is no block key.
	v := mustLookup(t, tb, "v")
	if _, found := r.BlockByKey([]sym.ID{v}); found {
		t.Fatal("BlockByKey found a block for a non-key symbol")
	}
	// Wrong key length matches nothing.
	k0 := mustLookup(t, tb, "k0")
	if _, found := r.BlockByKey([]sym.ID{k0, v}); found {
		t.Fatal("BlockByKey matched a key of the wrong length")
	}
	if _, found := r.BlockByKey(nil); found {
		t.Fatal("BlockByKey matched an empty key")
	}
}

func TestBlockByKeyCompositeKey(t *testing.T) {
	r, tb := buildRel(t, "R", 3, 2, [][][]string{
		{{"a", "b", "1"}},
		{{"a", "c", "2"}},
		{{"b", "a", "3"}, {"b", "a", "4"}},
	})
	a, b, c := mustLookup(t, tb, "a"), mustLookup(t, tb, "b"), mustLookup(t, tb, "c")
	cases := []struct {
		key  []sym.ID
		blk  int32
		want bool
	}{
		{[]sym.ID{a, b}, 0, true},
		{[]sym.ID{a, c}, 1, true},
		{[]sym.ID{b, a}, 2, true},
		{[]sym.ID{c, a}, 0, false},
		{[]sym.ID{b, b}, 0, false},
	}
	for _, tc := range cases {
		blk, found := r.BlockByKey(tc.key)
		if found != tc.want || (found && blk != tc.blk) {
			t.Fatalf("BlockByKey(%v) = (%d, %v), want (%d, %v)", tc.key, blk, found, tc.blk, tc.want)
		}
	}
}

func TestEmptyRelation(t *testing.T) {
	r, _ := buildRel(t, "R", 2, 1, nil)
	if r.Rows() != 0 || r.NumBlocks() != 0 {
		t.Fatalf("empty relation: Rows=%d NumBlocks=%d", r.Rows(), r.NumBlocks())
	}
	if _, found := r.BlockByKey([]sym.ID{0}); found {
		t.Fatal("BlockByKey on empty relation found a block")
	}
}

func TestBuildPanicsOnEmptyBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build did not panic on an empty block")
		}
	}()
	b := NewBuilder("R", 1, 1)
	b.StartBlock()
	b.Build()
}

func TestBuildPanicsOnMixedKeys(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build did not panic on non-key-equal rows in one block")
		}
	}()
	b := NewBuilder("R", 1, 1)
	b.StartBlock()
	b.AddRow([]sym.ID{1})
	b.AddRow([]sym.ID{2})
	b.Build()
}

func TestBuildPanicsOnDuplicateBlockKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build did not panic on two blocks sharing a key")
		}
	}()
	b := NewBuilder("R", 2, 1)
	b.StartBlock()
	b.AddRow([]sym.ID{1, 2})
	b.StartBlock()
	b.AddRow([]sym.ID{1, 3})
	b.Build()
}

func TestAddRowPanicsOnArityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow did not panic on an arity mismatch")
		}
	}()
	b := NewBuilder("R", 2, 1)
	b.StartBlock()
	b.AddRow([]sym.ID{1})
}

func TestAddSpans(t *testing.T) {
	src, tb := buildRel(t, "R", 2, 1, [][][]string{
		{{"a", "1"}, {"a", "2"}},
		{{"b", "1"}},
		{{"c", "3"}, {"c", "4"}},
		{{"d", "9"}},
	})
	// Splice blocks [0,2) and [3,4), dropping block 2 (key c).
	b := NewBuilder("R", 2, 1)
	b.AddSpans(src, 0, 2)
	b.AddSpans(src, 2, 2) // empty range: no-op
	b.AddSpans(src, 3, 4)
	r := b.Build()
	if r.Rows() != 4 || r.NumBlocks() != 3 {
		t.Fatalf("Rows=%d NumBlocks=%d, want 4 and 3", r.Rows(), r.NumBlocks())
	}
	wantSpans := [][2]int32{{0, 2}, {2, 3}, {3, 4}}
	for bi, w := range wantSpans {
		lo, hi := r.Span(int32(bi))
		if lo != w[0] || hi != w[1] {
			t.Fatalf("Span(%d) = [%d,%d), want [%d,%d)", bi, lo, hi, w[0], w[1])
		}
	}
	wantCol1 := []string{"1", "2", "1", "9"}
	for row, w := range wantCol1 {
		if got := tb.String(r.At(1, int32(row))); got != w {
			t.Fatalf("At(1,%d) = %q, want %q", row, got, w)
		}
	}
	for _, k := range []string{"a", "b", "d"} {
		if _, ok := r.BlockByKey([]sym.ID{mustLookup(t, tb, k)}); !ok {
			t.Fatalf("spliced relation lost key %q", k)
		}
	}
	if _, ok := r.BlockByKey([]sym.ID{mustLookup(t, tb, "c")}); ok {
		t.Fatal("dropped block still addressable")
	}
}

// mustLookup returns the ID of a constant the table already holds:
// interning it must not grow the table.
func mustLookup(t *testing.T, tb *sym.Table, s string) sym.ID {
	t.Helper()
	n := tb.Len()
	id := tb.Intern(s)
	if tb.Len() != n {
		t.Fatalf("constant %q not interned", s)
	}
	return id
}

func TestAddSpansMixedWithRows(t *testing.T) {
	src, tb := buildRel(t, "R", 2, 1, [][][]string{
		{{"a", "1"}},
		{{"b", "2"}, {"b", "3"}},
	})
	b := NewBuilder("R", 2, 1)
	b.StartBlock()
	b.AddRow([]sym.ID{tb.Intern("z"), tb.Intern("0")})
	b.AddSpans(src, 0, 2)
	r := b.Build()
	if r.Rows() != 4 || r.NumBlocks() != 3 {
		t.Fatalf("Rows=%d NumBlocks=%d, want 4 and 3", r.Rows(), r.NumBlocks())
	}
	// The spliced spans shifted past the hand-built block.
	if lo, hi := r.Span(1); lo != 1 || hi != 2 {
		t.Fatalf("Span(1) = [%d,%d), want [1,2)", lo, hi)
	}
	if lo, hi := r.Span(2); lo != 2 || hi != 4 {
		t.Fatalf("Span(2) = [%d,%d), want [2,4)", lo, hi)
	}
}

func TestAddSpansPanicsOnShapeMismatch(t *testing.T) {
	src, _ := buildRel(t, "S", 3, 2, [][][]string{{{"a", "b", "c"}}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	NewBuilder("R", 2, 1).AddSpans(src, 0, 1)
}

func TestAddSpansPanicsOnBadRange(t *testing.T) {
	src, _ := buildRel(t, "R", 2, 1, [][][]string{{{"a", "1"}}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range span")
		}
	}()
	NewBuilder("R", 2, 1).AddSpans(src, 0, 2)
}
