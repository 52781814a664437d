package match_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/difftest"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// TestConstraintsMatchOracle: the form numbered by (relation, position)
// equals the address-numbered reference — blocks, constraints,
// embeddings, Constrained, and the Purified form with its witnesses —
// on every generator family of the differential corpus and on queries
// with self-joins, where two atoms can share a fact or hit two facts of
// one block. Each database is checked cold and again with its columnar
// view warmed, as the store warms it, so probes read both key tables.
func TestConstraintsMatchOracle(t *testing.T) {
	check := func(name string, q query.Query, d *db.DB) {
		t.Helper()
		if err := match.CheckConstraintsOracle(q, d); err != nil {
			t.Fatalf("%s, cold: q = %s: %v\ndb:\n%s", name, q, err, d)
		}
		d.Columnar()
		if err := match.CheckConstraintsOracle(q, d); err != nil {
			t.Fatalf("%s, warm: q = %s: %v\ndb:\n%s", name, q, err, d)
		}
	}
	for seed := int64(0); seed < 600; seed++ {
		shape := byte(seed % difftest.NumShapes)
		q, d := difftest.Generate(seed, shape)
		check(fmt.Sprintf("difftest seed %d shape %d", seed, shape), q, d)
	}
	rng := rand.New(rand.NewSource(17))
	selfJoins := []string{
		"R(x | y), R(x | z)",
		"R(x | y), R(y | x)",
		"R(x | y), S(y | z), R(z | w)",
		"R(x | x), R(x | y)",
		"R(x | y, z), R(x | y, w), S(z | w)",
	}
	var shared, split int
	for trial := 0; trial < 300; trial++ {
		q, err := query.ParseAtomList(selfJoins[trial%len(selfJoins)])
		if err != nil {
			t.Fatal(err)
		}
		dp := workload.DefaultDBParams()
		dp.SeedMatches = 1 + rng.Intn(6)
		dp.Domain = 2 + rng.Intn(3)
		dp.ExtraPerBlock = rng.Float64()
		dp.Noise = rng.Intn(6)
		d := workload.RandomDB(rng, q, dp)
		check("self-join", q, d)
		cs, err := match.NewIndex(d).Constraints(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Embeddings > len(cs.Cons) {
			split++
		}
		for _, c := range cs.Cons {
			if len(c) < q.Len() {
				shared++
				break
			}
		}
	}
	t.Logf("self-join corpus: %d forms with a shared fact, %d with an inconsistent embedding", shared, split)
	if shared < 50 || split < 50 {
		t.Errorf("self-join corpus too thin: %d forms with a shared fact, %d with an inconsistent embedding", shared, split)
	}
}
