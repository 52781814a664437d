package rewrite

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/workload"
)

// TestInternedMatchesRowRandom: the interned columnar walk decides the
// same boolean as the row-oriented Lemma 10 reference (Certain) and as
// the brute-force repair oracle on random acyclic instances.
func TestInternedMatchesRowRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4117))
	oracle := 0
	for trial := 0; trial < 300; trial++ {
		q := acyclicRandomQuery(rng, t)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		got, err := el.CertainChecked(match.NewIndex(d), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("interned=%v reference=%v\nq = %s\ndb:\n%s", got, want, q, d)
		}
		if d.NumRepairs() > 1<<12 {
			continue
		}
		truth, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		oracle++
		if got != truth {
			t.Fatalf("interned=%v naive=%v\nq = %s\ndb:\n%s", got, truth, q, d)
		}
	}
	if oracle < 100 {
		t.Fatalf("only %d/300 trials fit the repair oracle", oracle)
	}
}

// TestInternedWithInitialValuation: seeding the interned walk with a
// candidate binding agrees with the reference on the substituted query,
// including bindings to constants absent from the database (a fresh
// interned symbol occurs in no column, so unification fails exactly as
// string comparison does) and bindings of foreign variables (inert).
func TestInternedWithInitialValuation(t *testing.T) {
	rng := rand.New(rand.NewSource(929))
	for trial := 0; trial < 150; trial++ {
		q := acyclicRandomQuery(rng, t)
		vars := q.Vars().Sorted()
		if len(vars) == 0 {
			continue
		}
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		adom := d.ActiveDomain()
		if len(adom) == 0 {
			continue
		}
		v := vars[rng.Intn(len(vars))]
		c := adom[rng.Intn(len(adom))]
		if trial%5 == 0 {
			c = "no-such-constant-anywhere"
		}
		binding := query.Valuation{v: c, "zzUnused": "whatever"}
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := el.CertainChecked(match.NewIndex(d), binding, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := CertainAcyclic(q.Substitute(query.Valuation{v: c}), d)
		if got != want {
			t.Fatalf("interned=%v reference=%v\nq = %s\nbinding = %v\ndb:\n%s",
				got, want, q, binding, d)
		}
	}
}

// TestInternedAbsentRelation: a query over a relation with no facts is
// never certain (on a nonempty query), on both evaluators.
func TestInternedAbsentRelation(t *testing.T) {
	q := query.MustParse("T(x | y)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	d := factsDB(t, "R(a | b)")
	got, err := el.CertainChecked(match.NewIndex(d), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("query over an absent relation reported certain")
	}
	if want := CertainAcyclic(q, d); want != got {
		t.Fatalf("interned=%v reference=%v on absent relation", got, want)
	}
}

// TestInternedRejectsConflictingSignature: a second signature under one
// relation name never reaches the database (ingestion rejects it), and
// a query whose atom disagrees with the stored signature gets an error
// from every entry point of the walk — never a panic, never a boolean.
func TestInternedRejectsConflictingSignature(t *testing.T) {
	if _, err := db.ParseFacts(nil, "R(a | b)\nR(c | d, e)\nS(b | c)"); err == nil {
		t.Fatal("upload giving R two signatures accepted")
	}
	d := db.New()
	d.Add(db.NewFact(schema.Relation{Name: "R", Arity: 2, KeyLen: 1}, "a", "b"))
	if _, err := d.Insert(db.NewFact(schema.Relation{Name: "R", Arity: 3, KeyLen: 1}, "c", "d", "e")); err == nil {
		t.Fatal("Insert accepted a second signature for R")
	}
	d.Add(db.NewFact(schema.Relation{Name: "S", Arity: 2, KeyLen: 1}, "b", "c"))

	q := query.MustParse("R(x | y, w), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(d)
	wantErr := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "R[2,1]") || !strings.Contains(err.Error(), "R[3,1]") {
			t.Errorf("%s: err = %v, want both signatures named", name, err)
		}
	}
	_, err = el.CertainChecked(ix, nil, nil)
	wantErr("CertainChecked", err)
	_, err = el.CertainOverSpans(ix, nil, nil)
	wantErr("CertainOverSpans", err)
	_, err = el.SweepSpans(ix, nil, []query.Var{"x"}, nil, nil)
	wantErr("SweepSpans", err)
}

// TestCertainOverSpansPartition: nil spans decide exactly Certain, and
// any partition of the top relation's block indices ORs to the same
// boolean — the contract the scatter-gather coordinator relies on.
func TestCertainOverSpansPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(6553))
	for trial := 0; trial < 120; trial++ {
		q := acyclicRandomQuery(rng, t)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(el.Order()) == 0 {
			continue
		}
		ix := match.NewIndex(d)
		want := CertainAcyclic(q, d)
		all, err := el.CertainOverSpans(ix, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if all != want {
			t.Fatalf("CertainOverSpans(nil)=%v reference=%v\nq = %s\ndb:\n%s", all, want, q, d)
		}
		topRel := el.Order()[0].Rel.Name
		cr := d.Columnar().Rel(topRel)
		if cr == nil {
			continue
		}
		parts := make([][]int32, 3)
		for b := 0; b < cr.Rel.NumBlocks(); b++ {
			parts[b%3] = append(parts[b%3], int32(b))
		}
		union := false
		for _, part := range parts {
			res, err := el.CertainOverSpans(ix, part, nil)
			if err != nil {
				t.Fatalf("CertainOverSpans refused valid spans %v: %v", part, err)
			}
			union = union || res
		}
		if union != want {
			t.Fatalf("partition OR=%v reference=%v\nq = %s\ndb:\n%s", union, want, q, d)
		}
		// Out-of-range spans are refused, never mis-decided.
		if _, err := el.CertainOverSpans(ix, []int32{int32(cr.Rel.NumBlocks())}, nil); err == nil {
			t.Fatal("CertainOverSpans accepted an out-of-range block index")
		}
	}
}

// referenceAnswers decides the certain answers of a query sweepable on
// free by asking the reference recursion about every candidate binding
// read off a block key of the top relation.
func referenceAnswers(q query.Query, el *Eliminator, free []query.Var, d *db.DB) map[string]bool {
	top := el.Order()[0]
	out := make(map[string]bool)
	for _, b := range d.BlocksOf(top.Rel.Name) {
		binding := query.Valuation{}
		if !match.UnifyTerms(top.KeyArgs(), b.Facts[0].Key(), binding) {
			continue
		}
		for x := range binding {
			if !slices.Contains(free, x) {
				delete(binding, x)
			}
		}
		if CertainAcyclic(q.Substitute(binding), d) {
			out[binding.Key()] = true
		}
	}
	return out
}

func keySet(tab query.Answers, free []query.Var) map[string]bool {
	m := make(map[string]bool, len(tab))
	for _, row := range tab {
		m[query.Binding(free, row).Key()] = true
	}
	return m
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestSweepSpansMatchesReference: the interned sweep produces the
// answer set the reference recursion certifies candidate by candidate,
// flat and under a partition whose parts append to one table.
func TestSweepSpansMatchesReference(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	d := factsDB(t, `
		R(a | b)
		R(a | c)
		R(d | b)
		R(e | q)
		S(b | t)
		S(c | t)
		S(b | u)
	`)
	free := []query.Var{"x"}
	if !el.SweepableFree(free) {
		t.Fatal("fixture query should be sweepable on x")
	}
	ix := match.NewIndex(d)
	want := referenceAnswers(q, el, free, d)
	got, err := el.SweepSpans(ix, nil, free, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(keySet(got, free), want) {
		t.Fatalf("SweepSpans answers %v, reference answers %v", got, want)
	}
	// Partitioned sweeps appending to one table union to the same set.
	cr := d.Columnar().Rel("R")
	parts := make([][]int32, 2)
	for b := 0; b < cr.Rel.NumBlocks(); b++ {
		parts[b%2] = append(parts[b%2], int32(b))
	}
	var union query.Answers
	for _, part := range parts {
		union, err = el.SweepSpans(ix, part, free, union, nil)
		if err != nil {
			t.Fatalf("partitioned SweepSpans: %v", err)
		}
	}
	if len(union) != len(got) || !sameKeys(keySet(union, free), want) {
		t.Fatalf("partitioned union %v, want %v", union, want)
	}
	// Free variables off the top atom's key are refused.
	if _, err := el.SweepSpans(ix, nil, []query.Var{"z"}, nil, nil); err == nil {
		t.Fatal("SweepSpans accepted a free variable outside the top key")
	}
}

// TestSweepSpansRandomDifferential: interned sweep vs the reference on
// random sweepable instances.
func TestSweepSpansRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	free := []query.Var{"x"}
	for trial := 0; trial < 80; trial++ {
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		got, err := el.SweepSpans(match.NewIndex(d), nil, free, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceAnswers(q, el, free, d); !sameKeys(keySet(got, free), want) {
			t.Fatalf("SweepSpans %v, reference %v\ndb:\n%s", got, want, d)
		}
	}
}

// TestInternedConstantsInQuery: query constants — present and absent
// from the database — decide identically on both evaluators.
func TestInternedConstantsInQuery(t *testing.T) {
	d := factsDB(t, `
		R(a | b)
		R(a | c)
		S(b | v)
		S(c | v)
	`)
	ix := match.NewIndex(d)
	for _, qs := range []string{
		`R('a' | y), S(y | z)`,
		`R('nope' | y), S(y | z)`,
		`R(x | y), S(y | 'v')`,
		`R(x | y), S(y | 'missing')`,
	} {
		q := query.MustParse(qs)
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatalf("compile %s: %v", qs, err)
		}
		got, err := el.CertainChecked(ix, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if want := CertainAcyclic(q, d); got != want {
			t.Fatalf("%s: interned=%v reference=%v", qs, got, want)
		}
	}
}
