package simplify

import (
	"math/rand"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/workload"
)

func TestSimulateConsistentShape(t *testing.T) {
	q := query.MustParse("R(x | y), T#c(y | z)")
	step, changed := SimulateConsistent(q)
	if !changed {
		t.Fatal("expected change")
	}
	if step.Q.InconsistencyCount() != 3 {
		t.Errorf("incnt = %d, want 3 (R + two copies)", step.Q.InconsistencyCount())
	}
	for _, a := range step.Q.Atoms {
		if a.Rel.Mode == schema.ModeC {
			t.Errorf("mode-c atom %s survived", a)
		}
	}
	// No mode-c atoms: no change.
	if _, changed := SimulateConsistent(query.MustParse("R(x | y)")); changed {
		t.Error("pure mode-i query should be untouched")
	}
}

// TestProposition1 validates the reduction on random instances: the
// certain answer is identical before and after replacing mode-c atoms by
// duplicated mode-i copies.
func TestProposition1(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	checked := 0
	for trial := 0; trial < 400 && checked < 150; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		p.PModeC = 0.5
		q := workload.RandomQuery(rng, p)
		step, changed := SimulateConsistent(q)
		if !changed {
			continue
		}
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<11 {
			continue
		}
		nd, err := step.TransformDB(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if nd.NumRepairs() > 1<<12 {
			continue
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := naive.Certain(step.Q, nd)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Proposition 1 violated: %v -> %v\nq=%s -> %s\ndb:\n%s",
				want, got, q, step.Q, d)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d instances checked", checked)
	}
}

// TestProposition1PreservesClass: the classification agrees across the
// simulation (both directions of the paper's equivalence).
func TestProposition1PreservesClass(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 400; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(4)
		p.PModeC = 0.5
		q := workload.RandomQuery(rng, p)
		step, changed := SimulateConsistent(q)
		if !changed {
			continue
		}
		cls1, err := classOf(q)
		if err != nil {
			t.Fatal(err)
		}
		cls2, err := classOf(step.Q)
		if err != nil {
			t.Fatal(err)
		}
		if cls1 != cls2 {
			t.Fatalf("classification changed: %v -> %v\n%s -> %s", cls1, cls2, q, step.Q)
		}
	}
}

func classOf(q query.Query) (attack.Class, error) {
	c, _, err := attack.Classify(q)
	return c, err
}
