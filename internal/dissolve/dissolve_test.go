package dissolve

import (
	"math/rand"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/db"
	"cqa/internal/markov"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/workload"
)

// prepare purifies and gpurifies a database for q; the regime the
// reduction requires (q must already be simple-key, constant-free). It
// returns the gpurified database and its form.
func prepare(t *testing.T, q query.Query, d *db.DB) (*db.DB, *match.Constraints) {
	t.Helper()
	pd, _ := match.Purify(q, d, nil)
	gf, err := match.GPurify(q, pd, nil)
	if err != nil {
		t.Fatal(err)
	}
	return gf.Copy(), gf
}

func mustDissolve(t *testing.T, q query.Query) (*Dissolution, *markov.Graph) {
	t.Helper()
	m, err := markov.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	g, err := attack.BuildGraph(q)
	if err != nil {
		t.Fatal(err)
	}
	c := m.PremierCycle(g)
	if c == nil {
		t.Fatal("no premier cycle")
	}
	dd, err := Dissolve(q, m, c)
	if err != nil {
		t.Fatal(err)
	}
	return dd, m
}

// TestDissolveShapeExample8 checks the query-level construction of
// Definition 5 on the Figure 2 query: dissolve(C, q) keeps the mode-c
// atoms, removes the Cq atoms of the cycle, and adds T plus one U_i per
// cycle position.
func TestDissolveShapeExample8(t *testing.T) {
	q := query.MustParse("R(x | y, v), S(y | x), V1#c(v | w), W(w | v), V2#c(w | y)")
	dd, _ := mustDissolve(t, q)
	k := len(dd.C)
	if k < 2 {
		t.Fatalf("cycle %v", dd.C)
	}
	// Definition 5 bookkeeping.
	if dd.TRel.Mode != schema.ModeI || dd.TRel.KeyLen != 1 {
		t.Errorf("T relation wrong: %v", dd.TRel)
	}
	if dd.TRel.Arity != 1+k+len(dd.YVars) {
		t.Errorf("T arity %d, want 1+%d+%d", dd.TRel.Arity, k, len(dd.YVars))
	}
	if len(dd.URels) != k {
		t.Errorf("%d U relations, want %d", len(dd.URels), k)
	}
	for _, u := range dd.URels {
		if u.Mode != schema.ModeC || u.Arity != 2 {
			t.Errorf("U relation wrong: %v", u)
		}
	}
	// Q0 atoms are gone from QStar; the rest of q is kept.
	for _, a := range dd.Q0.Atoms {
		if dd.QStar.HasRel(a.Rel.Name) {
			t.Errorf("dissolved atom %s still present", a.Rel.Name)
		}
	}
	// incnt decreases strictly (Cq(y) nonempty for every cycle variable).
	if dd.QStar.InconsistencyCount() >= q.InconsistencyCount() {
		t.Errorf("incnt did not decrease: %d -> %d",
			q.InconsistencyCount(), dd.QStar.InconsistencyCount())
	}
}

func TestDissolveRejectsBadCycles(t *testing.T) {
	q := workload.Q0()
	m, err := markov.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dissolve(q, m, []query.Var{"x"}); err == nil {
		t.Error("length-1 cycle accepted")
	}
	if _, err := Dissolve(q, m, []query.Var{"x", "x"}); err == nil {
		t.Error("non-elementary cycle accepted")
	}
	if _, err := Dissolve(q, m, []query.Var{"x", "zzz"}); err == nil {
		t.Error("non-cycle accepted")
	}
}

// TestTransformPreservesCertaintyQ0 validates the Lemma 13/18 reduction
// end-to-end on q0: certainty before equals certainty after, using the
// brute-force oracle on both sides. Every generated instance is also
// checked with x's and y's pools merged, where one constant can be a
// vertex of both layers of G(db).
func TestTransformPreservesCertaintyQ0(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	q := workload.Q0()
	checked, shared := 0, 0
	var raws []*db.DB
	for trial := 0; trial < 600; trial++ {
		if trial%2 == 0 {
			raws = append(raws, workload.RandomDB(rng, q, workload.DefaultDBParams()))
		} else {
			raws = append(raws, workload.Q0Instance(rng, 2+rng.Intn(4), 1+rng.Intn(2)))
		}
		raws = append(raws, workload.SharePools(raws[len(raws)-1]))
	}
	for i, raw := range raws {
		if raw.NumRepairs() > 1<<12 {
			continue
		}
		gd, gf := prepare(t, q, raw)
		if len(match.AllMatches(q, gd)) == 0 {
			continue // the solver answers false before dissolving
		}
		dd, _ := mustDissolve(t, q)
		nd, _, err := dd.TransformDB(gf, nil)
		if err != nil {
			t.Fatalf("transform: %v\ndb:\n%s", err, gd)
		}
		if nd.NumRepairs() > 1<<12 {
			continue
		}
		if !nd.ConsistentFor() {
			t.Fatalf("U relations inconsistent:\n%s", nd)
		}
		want, err := naive.Certain(q, gd)
		if err != nil {
			t.Fatal(err)
		}
		got, err := naive.Certain(dd.QStar, nd)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("dissolution changed certainty %v -> %v\nbefore:\n%s\nafter:\n%s",
				want, got, gd, nd)
		}
		checked++
		if i%2 == 1 {
			shared++
		}
	}
	if checked < 25 || shared < 25 {
		t.Fatalf("only %d instances checked, %d with shared pools", checked, shared)
	}
}

// TestExample14SupportFailure reproduces Example 14: the cycle a,1,a does
// not support q because realizations disagree on y, so the component is
// deleted and the instance becomes falsifiable.
func TestExample14SupportFailure(t *testing.T) {
	q := query.MustParse("R(x0 | x1, y), S(x1 | x0, y)")
	d, err := db.ParseFacts(q.Schema(), `
		R(a | 1, alpha)
		R(a | 1, beta)
		S(1 | a, alpha)
		S(1 | a, beta)
	`)
	if err != nil {
		t.Fatal(err)
	}
	gd, gf := prepare(t, q, d)
	if gd.Len() == 0 {
		t.Skip("gpurification already resolved the instance")
	}
	dd, _ := mustDissolve(t, q)
	nd, st, err := dd.TransformDB(gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.SupportFailure == 0 {
		t.Errorf("expected a support failure, stats=%+v", st)
	}
	want, err := naive.Certain(q, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := naive.Certain(dd.QStar, nd)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || want {
		t.Errorf("Example 14 instance: want not-certain on both sides, got before=%v after=%v", want, got)
	}
}

// TestExample18MultipleTFacts reproduces Example 18: a supporting cycle
// whose edge has two realizations differing on y yields two T-facts in
// the same block.
func TestExample18MultipleTFacts(t *testing.T) {
	q := query.MustParse("R(x0 | x1, y), S(x1 | x0)")
	d, err := db.ParseFacts(q.Schema(), `
		R(a | 1, alpha)
		R(a | 1, beta)
		S(1 | a)
	`)
	if err != nil {
		t.Fatal(err)
	}
	gd, gf := prepare(t, q, d)
	dd, _ := mustDissolve(t, q)
	nd, st, err := dd.TransformDB(gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TFacts != 2 {
		t.Errorf("expected 2 T-facts (one per realization), got %d\n%s", st.TFacts, nd)
	}
	tf := nd.FactsOf(dd.TRel.Name)
	if len(tf) != 2 || !tf[0].KeyEqual(tf[1]) {
		t.Errorf("T-facts should share one block: %v", tf)
	}
	// Certainty preserved: the instance is certain (both repairs of the
	// R-block complete the cycle).
	want, _ := naive.Certain(q, gd)
	got, _ := naive.Certain(dd.QStar, nd)
	if !want || got != want {
		t.Errorf("certainty mismatch: before=%v after=%v", want, got)
	}
}

// TestLongCycleDeletion mirrors the db03 part of Example 10 (adapted to
// q0): a 4-cycle in G(db) for a 2-cycle query is deleted per Lemma 16.
func TestLongCycleDeletion(t *testing.T) {
	q := workload.Q0()
	d, err := db.ParseFacts(q.Schema(), `
		R0(a | 1)
		S0(1 | b)
		R0(b | 2)
		S0(2 | a)
	`)
	if err != nil {
		t.Fatal(err)
	}
	gd, gf := prepare(t, q, d)
	if gd.Len() == 0 {
		// gpurification may already remove everything; then the solver
		// answers false straight away, which matches the oracle.
		want, _ := naive.Certain(q, d)
		if want {
			t.Fatal("oracle says certain, but instance vanished")
		}
		return
	}
	dd, _ := mustDissolve(t, q)
	nd, st, err := dd.TransformDB(gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.LongCycles == 0 {
		t.Errorf("expected a long-cycle deletion, stats=%+v", st)
	}
	if len(nd.FactsOf(dd.TRel.Name)) != 0 {
		t.Errorf("deleted component should emit no T-facts:\n%s", nd)
	}
}

// TestCrossProductTFactsExample19 mirrors Example 19's shape: two
// supporting cycles in one component produce T-facts in one block.
func TestComponentConstantsConsistent(t *testing.T) {
	q := workload.Q0()
	d, err := db.ParseFacts(q.Schema(), `
		R0(a | 1)
		R0(a | 2)
		S0(1 | a)
		S0(2 | a)
	`)
	if err != nil {
		t.Fatal(err)
	}
	_, gf := prepare(t, q, d)
	dd, _ := mustDissolve(t, q)
	nd, st, err := dd.TransformDB(gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.KCycles != 2 {
		t.Errorf("expected 2 supported cycles, got %+v", st)
	}
	tf := nd.FactsOf(dd.TRel.Name)
	if len(tf) != 2 {
		t.Fatalf("expected 2 T-facts, got %v", tf)
	}
	if !tf[0].KeyEqual(tf[1]) {
		t.Errorf("cycles of one strong component must share the T-block")
	}
	for _, u := range dd.URels {
		if len(nd.FactsOf(u.Name)) == 0 {
			t.Errorf("missing U-facts for %s", u.Name)
		}
	}
}
