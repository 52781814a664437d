package core

import (
	"math/rand"
	"testing"

	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// TestPossibleAgainstEnumeration: POSSIBILITY(q) via consistent
// embeddings must match exhaustive repair enumeration.
func TestPossibleAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		q := workload.RandomQuery(rng, p)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<12 {
			continue
		}
		got := Possible(q, d)
		sat, total, err := naive.CountSatisfyingRepairs(q, d)
		if err != nil {
			t.Fatal(err)
		}
		want := sat > 0 && total > 0
		if got != want {
			t.Fatalf("Possible=%v, enumeration says %v (sat=%d/%d)\nq=%s\ndb:\n%s",
				got, want, sat, total, q, d)
		}
	}
}

func TestPossibleVsCertain(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := factsDB(t, q, `
		R(a | b)
		R(a | dead)
		S(b | c)
	`)
	res, err := evalCertain(q, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certain {
		t.Fatal("setup: should not be certain")
	}
	if !Possible(q, d) {
		t.Error("q holds in the repair keeping R(a|b)")
	}
	if !Possible(query.MustParse(""), d) {
		t.Error("empty query is always possible")
	}
}

// TestCertainImpliesPossible: on instances with at least one embedding,
// certainty implies possibility.
func TestCertainImpliesPossible(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		q := workload.RandomQuery(rng, p)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<12 {
			continue
		}
		certain, err := naive.Certain(q, d)
		if err != nil {
			continue
		}
		if certain && q.Len() > 0 && d.NumBlocks() > 0 {
			if !Possible(q, d) {
				t.Fatalf("certain but not possible?! q=%s\ndb:\n%s", q, d)
			}
		}
	}
}
