package workload

import (
	"math/rand"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/conp"
	"cqa/internal/db"
	"cqa/internal/naive"
	"cqa/internal/schema"
)

func TestQueryFamilies(t *testing.T) {
	for _, tc := range []struct {
		name string
		cls  func() attack.Class
		want attack.Class
	}{
		{"path", func() attack.Class { c, _, _ := attack.Classify(PathQuery(4)); return c }, attack.FO},
		{"cycle", func() attack.Class { c, _, _ := attack.Classify(CycleQuery(4)); return c }, attack.PTime},
		{"star", func() attack.Class { c, _, _ := attack.Classify(StarQuery(4)); return c }, attack.FO},
		{"q0", func() attack.Class { c, _, _ := attack.Classify(Q0()); return c }, attack.PTime},
		{"nonkeyjoin", func() attack.Class { c, _, _ := attack.Classify(NonKeyJoinQuery()); return c }, attack.CoNPComplete},
	} {
		if got := tc.cls(); got != tc.want {
			t.Errorf("%s: classified %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRandomQueryWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(6)
		p.PModeC = 0.3
		q := RandomQuery(rng, p)
		if err := q.Validate(); err != nil {
			t.Fatalf("invalid query %s: %v", q, err)
		}
		if !q.SelfJoinFree() {
			t.Fatalf("query %s has a self-join", q)
		}
	}
}

func TestRandomDBLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		p := DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(4)
		p.PModeC = 0.4
		q := RandomQuery(rng, p)
		d := RandomDB(rng, q, DefaultDBParams())
		if !d.ConsistentFor() {
			t.Fatalf("mode-c relation inconsistent in generated db for %s:\n%s", q, d)
		}
		for _, f := range d.Facts() {
			if f.Rel.Mode == schema.ModeC {
				continue
			}
		}
	}
}

// TestSATReductionCorrect: the Theorem 3 reduction is exact —
// CERTAINTY(q) on SATInstance(f) iff f is unsatisfiable — validated
// against both brute-force SAT and the repair oracle.
func TestSATReductionCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := SATQuery()
	for trial := 0; trial < 150; trial++ {
		f := RandomCNF(rng, 2+rng.Intn(5), 1+rng.Intn(10), 1+rng.Intn(3))
		d := SATInstance(f)
		wantCertain := !f.Satisfiable()
		got, _ := conp.Certain(q, d)
		if got != wantCertain {
			t.Fatalf("conp=%v, formula satisfiable=%v\nclauses=%v", got, !wantCertain, f.Clauses)
		}
		if d.NumRepairs() <= 1<<13 {
			oracle, err := naive.Certain(q, d)
			if err != nil {
				t.Fatal(err)
			}
			if oracle != wantCertain {
				t.Fatalf("oracle=%v, want %v on %v", oracle, wantCertain, f.Clauses)
			}
		}
	}
}

func TestQ0InstanceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := Q0Instance(rng, 10, 2)
	if d.Len() == 0 {
		t.Fatal("empty instance")
	}
	rels := d.Relations()
	if len(rels) != 2 || rels[0] != "R0" || rels[1] != "S0" {
		t.Fatalf("unexpected relations %v", rels)
	}
}

func TestHardInstanceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := HardInstance(rng, 4, 6, 2)
	if len(d.FactsOf("R")) != 8 {
		t.Fatalf("expected 8 R facts, got %d", len(d.FactsOf("R")))
	}
	if len(d.FactsOf("S")) == 0 {
		t.Fatal("no S facts")
	}
}

func TestRandomValuationTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := PathQuery(3)
	v := RandomValuation(rng, q, 3)
	for x, c := range v {
		want := string(x) + "_"
		if len(c) < len(want) || string(c[:len(want)]) != want {
			t.Errorf("constant %s not drawn from pool of %s", c, x)
		}
	}
}

// TestSharePools: pool prefixes go, so constants of distinct variables
// meet, and constants without a prefix stay.
func TestSharePools(t *testing.T) {
	r := schema.NewRelation("R", 3, 1)
	d := db.New()
	d.Add(db.NewFact(r, "x_3", "y_3", "k"))
	d.Add(db.NewFact(r, "x_1", "y_2_0", "k"))
	got := SharePools(d).String()
	if want := db.FromFacts(db.NewFact(r, "3", "3", "k"), db.NewFact(r, "1", "2_0", "k")).String(); got != want {
		t.Errorf("SharePools =\n%s\nwant\n%s", got, want)
	}
}

// TestSATReductionLargerFormulas widens the Theorem 3 reduction check to
// formulas near the brute-force limit.
func TestSATReductionLargerFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q := SATQuery()
	for trial := 0; trial < 60; trial++ {
		vars := 7 + rng.Intn(4)
		f := RandomCNF(rng, vars, 3*vars, 3)
		d := SATInstance(f)
		wantCertain := !f.Satisfiable()
		got, _ := conp.Certain(q, d)
		if got != wantCertain {
			t.Fatalf("vars=%d: conp=%v, satisfiable=%v\nclauses=%v",
				vars, got, !wantCertain, f.Clauses)
		}
	}
}
