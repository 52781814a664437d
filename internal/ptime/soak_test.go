package ptime

import (
	"math/rand"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/db"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// TestSoakDifferential is the widest randomized sweep in the repository:
// deeper queries, heavier databases, and all three generators, checked
// against the oracle. Skipped under -short.
func TestSoakDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(9001))
	stats := struct {
		instances, dissolutions, saturations int
	}{}
	check := func(q query.Query, d *db.DB) {
		if d.NumRepairs() > 1<<14 {
			return
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := Certain(q, d)
		if err != nil {
			t.Fatalf("err on %s: %v\ndb:\n%s", q, err, d)
		}
		if got != want {
			t.Fatalf("ptime=%v naive=%v\nq=%s\ndb:\n%s", got, want, q, d)
		}
		stats.instances++
		stats.dissolutions += st.Dissolutions
		stats.saturations += st.Saturations
	}

	// Sweep 1: random P-class queries, deeper than the regular tests.
	tried := 0
	for trial := 0; trial < 60000 && tried < 400; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 2 + rng.Intn(5)
		p.PModeC = 0.25
		p.PConst = 0.1
		q := workload.RandomQuery(rng, p)
		g, err := attack.BuildGraph(q)
		if err != nil {
			t.Fatal(err)
		}
		if !g.HasCycle() || g.HasStrongCycle() {
			continue
		}
		tried++
		dp := workload.DefaultDBParams()
		dp.SeedMatches = 1 + rng.Intn(5)
		dp.Domain = 1 + rng.Intn(3)
		dp.ExtraPerBlock = 0.8
		check(q, workload.RandomDB(rng, q, dp))
	}

	// Sweep 2: structured generators on q0.
	q0 := workload.Q0()
	for trial := 0; trial < 120; trial++ {
		check(q0, workload.Q0Instance(rng, 2+rng.Intn(5), 1+rng.Intn(2)))
		check(q0, workload.BlockSizeSkewedDB(rng, 1+rng.Intn(4), 4))
	}

	// Sweep 3: the saturation-heavy Example 6 query.
	ex6 := query.MustParse("R(x | y), S1(y | z), S2(y | z), T#c(x, z | w), U(w | x)")
	for trial := 0; trial < 120; trial++ {
		dp := workload.DefaultDBParams()
		dp.SeedMatches = 1 + rng.Intn(3)
		dp.Domain = 1 + rng.Intn(2)
		check(ex6, workload.RandomDB(rng, ex6, dp))
	}

	t.Logf("soak: %d instances, %d dissolutions, %d saturations",
		stats.instances, stats.dissolutions, stats.saturations)
	if stats.instances < 300 {
		t.Errorf("soak covered only %d instances", stats.instances)
	}
}
