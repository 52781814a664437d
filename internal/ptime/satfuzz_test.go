package ptime

import (
	"math/rand"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/naive"
	"cqa/internal/workload"
)

// TestStressSaturationPath hunts for queries that exercise the lazy
// saturation (Lemma 11) path and verifies agreement with the oracle.
func TestStressSaturationPath(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	sats, tried := 0, 0
	for trial := 0; trial < 60000 && tried < 800; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 2 + rng.Intn(4)
		p.PModeC = 0.2
		p.Vars = 4
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
		dp.SeedMatches = 1 + rng.Intn(4)
		dp.Domain = 1 + rng.Intn(2)
		d := workload.RandomDB(rng, q, dp)
		if d.NumRepairs() > 1<<13 {
			continue
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
		sats += st.Saturations
	}
	t.Logf("tried=%d saturations=%d", tried, sats)
}
