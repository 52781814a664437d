package ptime

import (
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// effortPin fixes the work the Theorem 4 recursion does on one seeded
// instance: the verdict plus every Stats counter. A change to
// purification, gpurification or the simplification steps that alters
// which residues the recursion visits shows up here even when every
// verdict still agrees with the oracle.
type effortPin struct {
	name    string
	q       query.Query
	build   func() *db.DB
	certain bool
	stats   Stats
}

var (
	ex6Query       = query.MustParse("R(x | y), S1(y | z), S2(y | z), T#c(x, z | w), U(w | x)")
	compositeQuery = query.MustParse("R(x, y | z), S(y, z | x)")
)

func q0Pin(seed int64, nodes int) func() *db.DB {
	return func() *db.DB { return workload.Q0Instance(rand.New(rand.NewSource(seed)), nodes, 2) }
}

func skewPin(seed int64) func() *db.DB {
	return func() *db.DB { return workload.BlockSizeSkewedDB(rand.New(rand.NewSource(seed)), 4, 4) }
}

func randomPin(q query.Query, seed int64, seeds, domain int) func() *db.DB {
	return func() *db.DB {
		p := workload.DefaultDBParams()
		p.SeedMatches, p.Domain, p.ExtraPerBlock = seeds, domain, 0.6
		return workload.RandomDB(rand.New(rand.NewSource(seed)), q, p)
	}
}

var ptimePins = []effortPin{
	{"q0-4x12", workload.Q0(), q0Pin(4, 12), true, Stats{Levels: 3, Branches: 10, Dissolutions: 1, GPurifyRuns: 1, TFacts: 11}},
	{"q0-7x15", workload.Q0(), q0Pin(7, 15), true, Stats{Levels: 3, Branches: 27, Dissolutions: 1, GPurifyRuns: 1, TFacts: 27}},
	{"q0-11x19", workload.Q0(), q0Pin(11, 19), false, Stats{Levels: 2, Dissolutions: 1, GPurifyRuns: 1}},
	{"q0-skew-2", workload.Q0(), skewPin(2), true, Stats{Levels: 3, Branches: 4, Dissolutions: 1, GPurifyRuns: 1, TFacts: 10}},
	{"ex6-sat-34", ex6Query, randomPin(ex6Query, 34, 1, 2), true, Stats{Levels: 5, Branches: 3, Dissolutions: 1, Saturations: 1, GPurifyRuns: 2, TFacts: 1}},
	{"ex6-1", ex6Query, randomPin(ex6Query, 1, 4, 2), false, Stats{Levels: 1, GPurifyRuns: 1}},
	{"composite-1", compositeQuery, randomPin(compositeQuery, 1, 4, 2), false, Stats{Levels: 2, Dissolutions: 1, GPurifyRuns: 1}},
	{"composite-6", compositeQuery, randomPin(compositeQuery, 6, 4, 2), true, Stats{Levels: 3, Branches: 3, Dissolutions: 1, GPurifyRuns: 1, TFacts: 3}},
}

func TestPTimeEffortPinned(t *testing.T) {
	for _, p := range ptimePins {
		got, st, err := Certain(p.q, p.build())
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got != p.certain || *st != p.stats {
			t.Errorf("%s: certain=%v %+v, want certain=%v %+v", p.name, got, *st, p.certain, p.stats)
		}
	}
}
