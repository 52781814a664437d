package query

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// sameBacking reports whether the rows of t are consecutive w-cell
// sub-slices of one array, each reaching to that array's end.
func sameBacking(t Answers, w int) bool {
	if len(t) == 0 {
		return true
	}
	all := t[0][:cap(t[0])]
	for i, row := range t {
		if len(row) != w || cap(row) != cap(all)-i*w || (w > 0 && &row[0] != &all[i*w]) {
			return false
		}
	}
	return true
}

func TestAnswersAddLayoutAndReuse(t *testing.T) {
	var tab Answers
	for i := 0; i < 100; i++ {
		var row []Const
		tab, row = tab.Add(2)
		row[0], row[1] = Const(rune('a'+i%26)), Const(strings.Repeat("z", i))
	}
	if len(tab) != 100 || !sameBacking(tab, 2) {
		t.Fatalf("100 rows: len %d, one backing array %v", len(tab), sameBacking(tab, 2))
	}
	for i, row := range tab {
		if row[0] != Const(rune('a'+i%26)) || len(row[1]) != i {
			t.Fatalf("row %d = %v after growth", i, row)
		}
	}
	// A truncated table refills its arrays without allocating.
	reuse := tab
	if n := testing.AllocsPerRun(20, func() {
		reuse = reuse[:0]
		for i := 0; i < 100; i++ {
			reuse, _ = reuse.Add(2)
		}
	}); n != 0 {
		t.Errorf("refilling a truncated table allocates %.1f/op, want 0", n)
	}
	// Rows that do not share one array (a decoded table) are copied into
	// one on the first Add.
	lit := Answers{{"a"}, {"b"}}
	lit, row := lit.Add(1)
	row[0] = "c"
	if !sameBacking(lit, 1) || lit[0][0] != "a" || lit[1][0] != "b" || lit[2][0] != "c" {
		t.Fatalf("Add to a literal table: %v, one backing array %v", lit, sameBacking(lit, 1))
	}
	// Width zero: the rows of a Boolean query.
	var zero Answers
	zero, _ = zero.Add(0)
	zero, _ = zero.Add(0)
	if len(zero) != 2 || len(slices.CompactFunc(zero, slices.Equal)) != 1 {
		t.Fatalf("width-zero table %v", zero)
	}
}

// TestAnswersSortOrder: the answer order compares columns in sorted
// variable order and constants as strings — unlike the "x=a,y=b" key
// strings, a constant sorts before every constant it is a proper prefix
// of, whatever byte follows.
func TestAnswersSortOrder(t *testing.T) {
	free := []Var{"y", "x"} // caller order; the order visits x, then y
	tab := Answers{{"2", "a b"}, {"1", "a"}, {"0", "a b"}, {"3", "a"}}
	tab.Sort(free)
	want := Answers{{"1", "a"}, {"3", "a"}, {"0", "a b"}, {"2", "a b"}}
	if !slices.EqualFunc(tab, want, slices.Equal) {
		t.Fatalf("sorted %v, want %v", tab, want)
	}
	if got := SortedColumns([]Var{"z", "b", "y", "a"}); !slices.Equal(got, []int{3, 1, 2, 0}) {
		t.Errorf("SortedColumns = %v, want [3 1 2 0]", got)
	}
}

// TestAnswersSortCompactRandom: on random tables built by Add, Sort
// yields the order of a reference sort of row copies and keeps the
// one-array layout; after slices.CompactFunc drops the repeats, Add
// still writes only unused cells.
func TestAnswersSortCompactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	free := []Var{"c", "a", "b"}
	cols := SortedColumns(free)
	for trial := 0; trial < 50; trial++ {
		var tab Answers
		var ref [][]Const
		for n := rng.Intn(60); n > 0; n-- {
			var row []Const
			tab, row = tab.Add(len(free))
			for j := range row {
				row[j] = Const("ab c"[:rng.Intn(5)])
			}
			ref = append(ref, slices.Clone(row))
		}
		tab.Sort(free)
		sort.SliceStable(ref, func(i, j int) bool {
			for _, c := range cols {
				if ref[i][c] != ref[j][c] {
					return ref[i][c] < ref[j][c]
				}
			}
			return false
		})
		if !slices.EqualFunc(tab, ref, slices.Equal) || !sameBacking(tab, len(free)) {
			t.Fatalf("trial %d: sorted %v, want %v", trial, tab, ref)
		}
		ref = slices.CompactFunc(ref, slices.Equal)
		tab = slices.CompactFunc(tab, slices.Equal)
		for i := 0; i < 5; i++ {
			var row []Const
			tab, row = tab.Add(len(free))
			for j := range row {
				row[j] = "new"
			}
			ref = append(ref, []Const{"new", "new", "new"})
		}
		if !slices.EqualFunc(tab, ref, slices.Equal) {
			t.Fatalf("trial %d: compacted and grown %v, want %v", trial, tab, ref)
		}
	}
}

func TestBinding(t *testing.T) {
	v := Binding([]Var{"y", "x"}, []Const{"b", "a"})
	if v.Key() != "x=a,y=b" {
		t.Fatalf("Binding = %v", v)
	}
}
