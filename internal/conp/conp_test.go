package conp

import (
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/schema"
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

func TestCertainBasic(t *testing.T) {
	q := query.MustParse("R(x | y)")
	d := factsDB(t, `
		R(a | b)
		R(a | c)
	`)
	// Every repair contains exactly one R(a | _) fact, so q is certain.
	got, _ := Certain(q, d)
	if !got {
		t.Errorf("q should be certain on %s", d)
	}
}

// TestCertainFalsifiable: on every non-certain instance — a crafted
// one, each non-certain effort pin, and a noisy instance whose
// purification drops whole blocks and whose relation outside q no
// embedding touches — FalsifyingRepair returns a complete repair of d
// (one fact of d per block) on which q is false.
func TestCertainFalsifiable(t *testing.T) {
	type instance struct {
		name string
		q    query.Query
		d    *db.DB
	}
	cases := []instance{{"crafted", query.MustParse("R(x | y), S(y | z)"), factsDB(t, `
		R(a | b)
		R(a | dead)
		S(b | c)
	`)}}
	for _, p := range effortPins {
		if !p.certain {
			cases = append(cases, instance{p.name, workload.SATQuery(), p.build()})
		}
	}
	cases = append(cases, instance{"noisy", workload.NonKeyJoinQuery(), noisyInstance()})
	for _, c := range cases {
		if got, _ := Certain(c.q, c.d); got {
			t.Errorf("%s: q should not be certain", c.name)
		}
		repair, found, _ := FalsifyingRepair(c.q, c.d)
		if !found {
			t.Errorf("%s: expected a falsifying repair", c.name)
			continue
		}
		if match.Satisfies(c.q, db.FromFacts(repair...)) {
			t.Errorf("%s: returned repair %v satisfies q", c.name, repair)
		}
		if !db.ConsistentSet(repair) || len(repair) != c.d.NumBlocks() {
			t.Errorf("%s: repair of %d facts for %d blocks is not one fact per block", c.name, len(repair), c.d.NumBlocks())
		}
		for _, f := range repair {
			if !c.d.Has(f) {
				t.Errorf("%s: repair fact %s is not in d", c.name, f)
			}
		}
	}
}

// noisyInstance is an E9-style instance of R(x | y), S(u | y): seeded
// embeddings, every other R-block diluted with a fact that joins nothing (so
// purification drops it, and then the S-blocks it cascades to), noise
// blocks in both relations, and blocks of a relation outside q. Three
// blocks survive purification, and the search backtracks among them.
func noisyInstance() *db.DB {
	rng := rand.New(rand.NewSource(7))
	q := workload.NonKeyJoinQuery()
	p := workload.DefaultDBParams()
	p.SeedMatches, p.Domain = 6, 3
	d := workload.RandomDB(rng, q, p)
	r, s := q.Atoms[0].Rel, q.Atoms[1].Rel
	for i, b := range d.BlocksOf("R") {
		if i%2 == 0 {
			d.Add(db.NewFact(r, b.Facts[0].Args[0], "dead_"+b.Facts[0].Args[0]))
		}
	}
	zout := schema.NewRelation("Zout", 2, 1)
	for i := 0; i < 20; i++ {
		n := query.Const(fmt.Sprint(i))
		d.Add(db.NewFact(r, "noise_x"+n, "noise_ry"+n))
		d.Add(db.NewFact(s, "noise_u"+n, "noise_sy"+n))
		d.Add(db.NewFact(zout, "k"+n[:1], "v"+n))
	}
	return d
}

func TestEmptyQueryAndEmptyDB(t *testing.T) {
	empty := query.MustParse("")
	d := factsDB(t, "R(a | b)")
	if got, _ := Certain(empty, d); !got {
		t.Errorf("empty query must be certain")
	}
	q := query.MustParse("R(x | y)")
	if got, _ := Certain(q, db.New()); got {
		t.Errorf("non-empty query on empty db must not be certain")
	}
}

// TestNonKeyJoinHardQuery pins the classic coNP-complete query down on a
// crafted instance where certainty fails only through a global choice.
func TestNonKeyJoinHardQuery(t *testing.T) {
	q := workload.NonKeyJoinQuery() // R(x | y), S(u | y)
	d := factsDB(t, `
		R(x1 | a)
		R(x1 | b)
		S(u1 | a)
		S(u2 | b)
	`)
	// Repair {R(x1,a), S(u1,a), S(u2,b)}: satisfied via y=a.
	// Repair {R(x1,b), ...}: satisfied via y=b. So certain.
	if got, _ := Certain(q, d); !got {
		t.Errorf("expected certain")
	}
	d.Add(db.Fact{Rel: d.Facts()[0].Rel, Args: []query.Const{"x1", "c"}})
	// Now the repair choosing R(x1, c) has no matching S-fact.
	if got, _ := Certain(q, d); got {
		t.Errorf("expected not certain after adding R(x1 | c)")
	}
}

// TestDifferentialVsNaive cross-checks the DPLL engine against the
// brute-force oracle on random queries and databases.
func TestDifferentialVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 400; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		q := workload.RandomQuery(rng, p)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<14 {
			continue
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := Certain(q, d)
		if got != want {
			t.Fatalf("conp=%v naive=%v\nq = %s\ndb:\n%s", got, want, q, d)
		}
	}
}

// TestDifferentialHardInstances cross-checks on the SAT-gadget generator.
func TestDifferentialHardInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	q := workload.NonKeyJoinQuery()
	for trial := 0; trial < 100; trial++ {
		d := workload.HardInstance(rng, 1+rng.Intn(4), 1+rng.Intn(4), 2)
		if d.NumRepairs() > 1<<14 {
			continue
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := Certain(q, d)
		if got != want {
			t.Fatalf("conp=%v naive=%v on hard instance\n%s", got, want, d)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	q := workload.NonKeyJoinQuery()
	rng := rand.New(rand.NewSource(5))
	d := workload.HardInstance(rng, 4, 4, 2)
	_, stats := Certain(q, d)
	if stats.Matches == 0 && d.Len() > 0 {
		// Some instances may purify to nothing; accept either, but the
		// search must at least have counted blocks or matches coherently.
		if stats.Blocks != 0 {
			t.Errorf("blocks without matches: %+v", stats)
		}
	}
}
