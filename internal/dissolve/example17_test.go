package dissolve

import (
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/markov"
	"cqa/internal/naive"
	"cqa/internal/query"
)

// ex17Query is the query of Examples 17 and 19:
// q = {R(x0 | y1, y2), V(x1 | y2), S1^c(y1, y2 | x1), S2^c(y2 | x0)}
// with Markov cycle x0 -> x1 -> x0, X0 = {x0, y1, y2}, X1 = {x1, y2}.
func ex17Query(t *testing.T) query.Query {
	t.Helper()
	return query.MustParse("R(x0 | y1, y2), V(x1 | y2), S1#c(y1, y2 | x1), S2#c(y2 | x0)")
}

// TestExample17 reproduces the non-supporting case: G(db) has the two
// cycles a,gamma,a and a,beta,a; the cycle a,beta,a supports q but
// a,gamma,a does not (mu1 and mu5 disagree on y2), so the component is
// deleted per Lemma 16 and the instance is not certain.
func TestExample17(t *testing.T) {
	q := ex17Query(t)
	d, err := db.ParseFacts(q.Schema(), `
		R(a | 1, 2)
		R(a | 3, 4)
		R(a | 1, 6)
		V(gamma | 2)
		V(gamma | 4)
		V(beta | 6)
		S1#c(1, 2 | gamma)
		S1#c(3, 4 | gamma)
		S1#c(1, 6 | beta)
		S2#c(2 | a)
		S2#c(4 | a)
		S2#c(6 | a)
	`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := markov.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	// Example 17's Markov cycle x0 -> x1 -> x0.
	if !m.HasEdge("x0", "x1") || !m.HasEdge("x1", "x0") {
		t.Fatalf("expected Markov cycle x0 <-> x1:\n%s", m)
	}

	// The paper constructs a repair s = {R(a,1,2), V(gamma,4), V(beta,6)}
	// that is not grelevant, so the instance is falsifiable.
	want, err := naive.Certain(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if want {
		t.Fatal("Example 17's instance should not be certain")
	}

	gd, gf := prepare(t, q, d)
	if gd.Len() == 0 {
		return // gpurification resolved it outright, consistent with the analysis
	}
	dd, err := Dissolve(q, m, []query.Var{"x0", "x1"})
	if err != nil {
		t.Fatal(err)
	}
	nd, st, err := dd.TransformDB(gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := naive.Certain(dd.QStar, nd)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reduction changed certainty: %v -> %v (stats %+v)", want, got, st)
	}
}

// TestExample19 reproduces the supporting case: both cycles a,gamma,a
// and a,beta,a support q, and the reduction emits the example's three
// T-rows (a gamma 1 2), (a beta 1 6), (a beta 3 6) in a single block.
func TestExample19(t *testing.T) {
	q := ex17Query(t)
	d, err := db.ParseFacts(q.Schema(), `
		R(a | 1, 2)
		R(a | 1, 6)
		R(a | 3, 6)
		S1#c(1, 2 | gamma)
		S1#c(1, 6 | beta)
		S1#c(3, 6 | beta)
		V(gamma | 2)
		V(beta | 6)
		S2#c(2 | a)
		S2#c(6 | a)
	`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Certain(q, d)
	if err != nil {
		t.Fatal(err)
	}
	gd, gf := prepare(t, q, d)
	if gd.Len() == 0 {
		t.Fatalf("Example 19's instance should survive gpurification")
	}
	m, err := markov.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := Dissolve(q, m, []query.Var{"x0", "x1"})
	if err != nil {
		t.Fatal(err)
	}
	nd, st, err := dd.TransformDB(gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.SupportFailure != 0 {
		t.Errorf("both cycles support q; stats %+v", st)
	}
	tf := nd.FactsOf(dd.TRel.Name)
	if len(tf) != 3 {
		t.Fatalf("expected the example's 3 T-rows, got %d:\n%s", len(tf), nd)
	}
	for _, f := range tf {
		if !f.KeyEqual(tf[0]) {
			t.Errorf("T-rows should share one block (one component)")
		}
	}
	// Row multiset: gamma appears once (via y1=1, y2=2), beta twice
	// (y1=1 and y1=3, both with y2=6); substring checks identify the
	// rows.
	gammaRows, betaRows := 0, 0
	for _, f := range tf {
		s := f.String()
		if strings.Contains(s, "gamma") {
			gammaRows++
		}
		if strings.Contains(s, "beta") {
			betaRows++
		}
	}
	if gammaRows != 1 || betaRows != 2 {
		t.Errorf("T rows: gamma=%d beta=%d, want 1 and 2:\n%v", gammaRows, betaRows, tf)
	}
	got, err := naive.Certain(dd.QStar, nd)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reduction changed certainty: %v -> %v", want, got)
	}
}
