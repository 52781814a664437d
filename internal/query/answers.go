package query

import (
	"slices"
	"sort"
	"strings"
)

// Answers is a table of certain answers of a non-Boolean query: one row
// per answer tuple, holding its constants in the caller's free-variable
// order. Rows built by Add are consecutive sub-slices of one backing
// array, so a table costs a row-header slice and a cell array however
// many rows it holds, and a table truncated to t[:0] refills without
// allocating. Add needs only that the cells past the last row are
// unused: Sort keeps that (it moves cells, never row headers), and so
// does dropping rows while keeping their order, as slices.CompactFunc
// does.
type Answers [][]Const

// Add appends a row of w cells to t and returns the grown table and the
// new row for the caller to fill. The row's cells may hold stale
// constants of a truncated table.
func (t Answers) Add(w int) (Answers, []Const) {
	// The unused tail of the backing array: past the last row, or the
	// whole array when t was truncated to t[:0].
	var tail []Const
	if n := len(t); n > 0 {
		last := t[n-1]
		tail = last[len(last):cap(last)]
	} else if cap(t) > 0 {
		first := t[:1][0]
		tail = first[:cap(first)]
	}
	if len(tail) < w {
		n := len(t)
		cells := make([]Const, 2*(n+1)*w)
		for i, row := range t {
			copy(cells[i*w:], row)
			t[i] = cells[i*w : (i+1)*w]
		}
		tail = cells[n*w:]
	}
	row := tail[:w]
	return append(t, row), row
}

// Sort puts t in the answer order, the one order of every answers path:
// rows compare column by column, visiting the columns in the sorted
// order of their variables in free, and constants compare as strings.
func (t Answers) Sort(free []Var) {
	sort.Sort(answerOrder{t, SortedColumns(free)})
}

// Binding returns an answer row as a valuation of free.
func Binding(free []Var, row []Const) Valuation {
	v := make(Valuation, len(free))
	for j, x := range free {
		v[x] = row[j]
	}
	return v
}

// SortedColumns returns the column indices of free in the sorted order
// of their variables: the column order of the answer order, and the key
// order of an answer rendered as an object.
func SortedColumns(free []Var) []int {
	cols := make([]int, len(free))
	for i := range cols {
		cols[i] = i
	}
	slices.SortFunc(cols, func(a, b int) int { return strings.Compare(string(free[a]), string(free[b])) })
	return cols
}

// answerOrder sorts a table by swapping cells, so each row header keeps
// its place in the backing array and the cells past the last row stay
// unused.
type answerOrder struct {
	t    Answers
	cols []int
}

func (o answerOrder) Len() int { return len(o.t) }

func (o answerOrder) Less(i, j int) bool {
	a, b := o.t[i], o.t[j]
	for _, c := range o.cols {
		if a[c] != b[c] {
			return a[c] < b[c]
		}
	}
	return false
}

func (o answerOrder) Swap(i, j int) {
	a, b := o.t[i], o.t[j]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}
