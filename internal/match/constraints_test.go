package match

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"cqa/internal/evalctx"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// TestConstraintsForm pins the repair-constraint form on a small
// instance: blocks in first-touch order, one constraint per embedding
// in join order, refs as (block ordinal, slot) in atom order.
func TestConstraintsForm(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := factsDB(t, `
		R(a | b)
		R(a | c)
		R(d | b)
		S(b | e)
		S(b | f)
		S(c | e)
		T(u | v)
	`)
	cs, err := NewIndex(d).Constraints(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, b := range cs.Blocks {
		ids = append(ids, b.Facts[0].String())
	}
	wantIDs := []string{"R(a | b)", "S(b | e)", "S(c | e)", "R(d | b)"}
	if !reflect.DeepEqual(ids, wantIDs) {
		t.Errorf("blocks %v, want %v", ids, wantIDs)
	}
	want := [][]Ref{
		{{0, 0}, {1, 0}}, // R(a|b) S(b|e)
		{{0, 0}, {1, 1}}, // R(a|b) S(b|f)
		{{0, 1}, {2, 0}}, // R(a|c) S(c|e)
		{{3, 0}, {1, 0}}, // R(d|b) S(b|e)
		{{3, 0}, {1, 1}}, // R(d|b) S(b|f)
	}
	if !reflect.DeepEqual(cs.Cons, want) || cs.Embeddings != len(want) {
		t.Errorf("constraints %v (%d embeddings), want %v", cs.Cons, cs.Embeddings, want)
	}
	for _, name := range d.RelationOrder() {
		for pos, b := range d.BlocksOf(name) {
			if got, wantC := cs.Constrained(name, pos), name != "T"; got != wantC {
				t.Errorf("Constrained(%s) = %v", b.ID, got)
			}
		}
	}
}

// TestConstraintsSelfJoin: with a self-join, an embedding mapping two
// atoms to distinct facts of one block is inconsistent and constrains
// nothing, while one mapping both to the same fact keeps a single ref.
func TestConstraintsSelfJoin(t *testing.T) {
	q, err := query.ParseAtomList("R(x | y), R(x | z)")
	if err != nil {
		t.Fatal(err)
	}
	d := factsDB(t, `
		R(a | b)
		R(a | c)
	`)
	cs, err := NewIndex(d).Constraints(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Ref{{{0, 0}}, {{0, 1}}}
	if cs.Embeddings != 4 || !reflect.DeepEqual(cs.Cons, want) || len(cs.Blocks) != 1 {
		t.Errorf("%d embeddings, constraints %v over %d blocks; want 4, %v over 1", cs.Embeddings, cs.Cons, len(cs.Blocks), want)
	}
}

// TestConstraintsCancelled: a checker that has tripped returns its
// error and no form. On the SAT reduction's shape the S atom is served
// from a lookup table, and a checker that trips while the join builds
// or reads it does the same. The join polls once per candidate fact and
// once per fact the table indexes: the first R fact scans S, the second
// builds the table, the rest read it.
func TestConstraintsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	chk := evalctx.New(ctx, evalctx.Limits{})
	chk.Check() // trip it: the join's next poll fails at once
	d := factsDB(t, "R(a | b)\nS(b | c)\n")
	cs, err := NewIndex(d).Constraints(query.MustParse("R(x | y), S(y | z)"), chk)
	if !errors.Is(err, context.Canceled) || cs != nil {
		t.Errorf("cancelled build: %v, %v", cs, err)
	}

	q := workload.SATQuery()
	if p := compile(q, nil); p.steps[1].access != lookup {
		t.Fatalf("S step compiled to access %d, want the lookup table", p.steps[1].access)
	}
	sat := workload.SATInstance(workload.RandomCNF(rand.New(rand.NewSource(4)), 12, 50, 3))
	full, err := NewIndex(sat).Constraints(q, nil)
	if err != nil || len(full.Cons) == 0 {
		t.Fatalf("unchecked build: %v, %v", full, err)
	}
	nr, ns := int64(len(sat.FactsOf("R"))), int64(len(sat.FactsOf("S")))
	for _, budget := range []int64{ns + 5, 2*ns + 1, 2*ns + nr} { // in the build, at its end, reading it
		chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: budget, Interval: 1})
		cs, err := NewIndex(sat).Constraints(q, chk)
		if !errors.Is(err, evalctx.ErrBudgetExceeded) || cs != nil {
			t.Errorf("budget %d: %v, %v; want the budget error and no form", budget, cs, err)
		}
	}
	// Each S fact is a candidate of one R fact at most, so the whole
	// build fits in nr + 3·ns polls; a scan per R fact would take nr·ns.
	chk = evalctx.New(context.Background(), evalctx.Limits{MaxSteps: nr + 3*ns, Interval: 1})
	if cs, err := NewIndex(sat).Constraints(q, chk); err != nil || !reflect.DeepEqual(cs.Cons, full.Cons) {
		t.Errorf("budget %d: %v; want the unchecked form", nr+3*ns, err)
	}
}
