package rewrite

import (
	"math/rand"
	"strings"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/conp"
	"cqa/internal/db"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

func factsDB(t *testing.T, lines string) *db.DB {
	t.Helper()
	d, err := db.ParseFacts(nil, lines)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCertainPath(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := factsDB(t, `
		R(a | b)
		S(b | c)
	`)
	got, err := Certain(q, d)
	if err != nil || !got {
		t.Fatalf("Certain = %v, %v; want true", got, err)
	}
	rRel, _ := d.Signature("R")
	sRel, _ := d.Signature("S")
	d.Add(db.Fact{Rel: rRel, Args: []query.Const{"a", "dead"}})
	got, err = Certain(q, d)
	if err != nil || got {
		t.Fatalf("Certain = %v, %v; want false after adding R(a | dead)", got, err)
	}
	// Adding S(dead | c) restores certainty: both R-choices now join.
	d.Add(db.Fact{Rel: sRel, Args: []query.Const{"dead", "c"}})
	got, err = Certain(q, d)
	if err != nil || !got {
		t.Fatalf("Certain = %v, %v; want true after adding S(dead | c)", got, err)
	}
}

func TestCertainRejectsCyclic(t *testing.T) {
	q := workload.Q0()
	if _, err := Certain(q, db.New()); err == nil {
		t.Fatal("expected error for cyclic attack graph")
	}
	if _, err := Rewriting(q); err == nil {
		t.Fatal("expected error from Rewriting for cyclic attack graph")
	}
}

// TestRewriteExample5 reproduces Example 5: q = {R(x|y), S(y|'b')} has the
// rewriting ∃x∃y( R(x|y) ∧ ∀y'( R(x|y') → S(y'|'b') ∧ ∀z(S(y'|z) → z='b') ) ).
func TestRewriteExample5(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | 'b')")
	f, err := Rewriting(q)
	if err != nil {
		t.Fatal(err)
	}
	s := Format(f)
	for _, frag := range []string{"∃x", "∃y", "∀y'", "R(x | y)", "R(x | y')", "= 'b'"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rewriting %q missing fragment %q", s, frag)
		}
	}
	// Sanity: the rewriting holds exactly when q is certain.
	good := factsDB(t, `
		R(1 | a)
		S(a | b)
	`)
	if !modelCheck(f, good) {
		t.Errorf("rewriting false on a certain instance:\n%s", s)
	}
	bad := factsDB(t, `
		R(1 | a)
		S(a | b)
		S(a | zz)
	`)
	if modelCheck(f, bad) {
		t.Errorf("rewriting true on an uncertain instance (block S(a|*) has a non-b fact)")
	}
}

func acyclicRandomQuery(rng *rand.Rand, t *testing.T) query.Query {
	t.Helper()
	for {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(4)
		q := workload.RandomQuery(rng, p)
		g, err := attack.BuildGraph(q)
		if err != nil {
			t.Fatal(err)
		}
		if !g.HasCycle() {
			return q
		}
	}
}

// TestDifferentialVsNaive cross-checks the FO engine against the oracle
// and the DPLL engine on random acyclic-attack-graph instances.
func TestDifferentialVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 300; trial++ {
		q := acyclicRandomQuery(rng, t)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<14 {
			continue
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("rewrite=%v naive=%v\nq = %s\ndb:\n%s", got, want, q, d)
		}
		dpll, _ := conp.Certain(q, d)
		if dpll != want {
			t.Fatalf("conp=%v naive=%v\nq = %s\ndb:\n%s", dpll, want, q, d)
		}
	}
}

// TestFormulaAgreesWithDirectEvaluator: the symbolic rewriting, model-
// checked over the active domain, agrees with the direct recursion.
func TestFormulaAgreesWithDirectEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 120; trial++ {
		q := acyclicRandomQuery(rng, t)
		if q.Vars().Sorted() == nil && q.Len() == 0 {
			continue
		}
		p := workload.DefaultDBParams()
		p.SeedMatches = 2
		p.Noise = 1
		d := workload.RandomDB(rng, q, p)
		if len(d.ActiveDomain()) > 8 || len(q.Vars()) > 5 {
			continue // keep model checking cheap
		}
		f, err := Rewriting(q)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if got := modelCheck(f, d); got != direct {
			t.Fatalf("formula=%v direct=%v\nq = %s\nrewriting = %s\ndb:\n%s",
				got, direct, q, Format(f), d)
		}
	}
}

func TestEmptyQueryCertain(t *testing.T) {
	got, err := Certain(query.MustParse(""), db.New())
	if err != nil || !got {
		t.Fatalf("empty query should be certain: %v, %v", got, err)
	}
	f, err := Rewriting(query.MustParse(""))
	if err != nil {
		t.Fatal(err)
	}
	if !modelCheck(f, db.New()) {
		t.Fatal("rewriting of empty query should be true")
	}
}
