package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cqa/internal/attack"
	"cqa/internal/conp"
	"cqa/internal/db"
	"cqa/internal/ptime"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// union returns comps instances of q drawn by gen, the constants of the
// k-th prefixed with "c<k>_" so that no two share a constant, and the
// coNP engine's verdict on it. For a connected q every embedding lies in
// one component, so a repair of the union falsifies q iff it falsifies
// every component, and the union is certain iff some component is: the
// coNP search runs per component, where it stays in milliseconds (on the
// whole union it would search the product of the components' repairs).
// Each component the search finds certain is redrawn, and then, when
// oneCertain, one certain component is put at a random place, so the
// corpus sees both verdicts.
func union(rng *rand.Rand, q query.Query, comps int, oneCertain bool, gen func(*rand.Rand) *db.DB) (*db.DB, bool, time.Duration) {
	at := -1
	if oneCertain {
		at = rng.Intn(comps)
	}
	out := db.New()
	var slowest time.Duration
	for k, tries := 0, 0; k < comps; tries++ {
		d := gen(rng)
		start := time.Now()
		c, _ := conp.Certain(q, d)
		slowest = max(slowest, time.Since(start))
		if c != (k == at) {
			if tries > 100*comps {
				at = -1 // gen draws no certain instance: settle for all false
			}
			continue
		}
		prefix := fmt.Sprintf("c%d_", k)
		for _, f := range d.Facts() {
			args := make([]query.Const, len(f.Args))
			for i, c := range f.Args {
				args[i] = query.Const(prefix) + c
			}
			out.Add(db.Fact{Rel: f.Rel, Args: args})
		}
		k++
	}
	return out, at >= 0, slowest
}

// connected reports whether q's atoms are connected through shared
// variables.
func connected(q query.Query) bool {
	vars := q.Atoms[0].Vars()
	left := slices.Clone(q.Atoms[1:])
	for grew := true; grew; {
		grew = false
		for i := 0; i < len(left); i++ {
			if a := left[i]; a.Vars().Intersects(vars) {
				vars.AddAll(a.Vars())
				left = slices.Delete(left, i, i+1)
				grew = true
			}
		}
	}
	return len(left) == 0
}

// TestScaleDifferential compares the P engine with the coNP search on
// instances of 500 to 5,000 blocks, far past the 2^13 repairs the
// enumeration oracle checks: unions of q0 instances shaped like the
// serving benchmark's (workload.Q0Instance components of 20 nodes),
// unions of random instances of the paper's Example 6 query, and unions
// of random instances of random connected, constant-free queries
// in P \ FO. The P engine decides the whole union; the coNP search
// decides each component (see union). The two engines share only the
// repair-constraint form and Lemma 1 purification, and each is checked
// against the enumeration oracle on small instances elsewhere.
func TestScaleDifferential(t *testing.T) {
	cases := 24
	if testing.Short() {
		cases = 8
	}
	var slowest time.Duration
	verdicts := map[bool]int{}
	var effort ptime.Stats
	check := func(name string, q query.Query, comps int, oneCertain bool, gen func(*rand.Rand) *db.DB, rng *rand.Rand) bool {
		t.Helper()
		d, want, slow := union(rng, q, comps, oneCertain, gen)
		if n := d.NumBlocks(); n < 500 || n > 5000 {
			return false
		}
		slowest = max(slowest, slow)
		got, st, err := ptime.Certain(q, d)
		if err != nil {
			t.Fatalf("%s: ptime: %v\nquery: %s", name, err, q)
		}
		if got != want {
			t.Fatalf("%s: ptime = %v, conp = %v\nquery: %s (%d blocks)", name, got, want, q, d.NumBlocks())
		}
		verdicts[got]++
		effort.Dissolutions += st.Dissolutions
		effort.Saturations += st.Saturations
		return true
	}

	q0 := workload.Q0()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < cases; i++ {
		comps := 16 + rng.Intn(17)
		gen := func(r *rand.Rand) *db.DB { return workload.Q0Instance(r, 20, 2) }
		if !check(fmt.Sprintf("q0 union %d (%d components)", i, comps), q0, comps, i%2 == 0, gen, rng) {
			t.Fatalf("q0 union %d: size out of range", i)
		}
	}

	// Example 6 of the paper: every mode-i atom attacked and q not
	// saturated, so each case runs the Lemma 11 saturation step.
	ex6 := query.MustParse("R(x | y), S1(y | z), S2(y | z), T#c(x, z | w), U(w | x)")
	for i := 0; i < cases; i++ {
		p := workload.DefaultDBParams()
		p.SeedMatches, p.Domain, p.ExtraPerBlock = 1+rng.Intn(2), 2, 0.6
		gen := func(r *rand.Rand) *db.DB { return workload.RandomDB(r, ex6, p) }
		if !check(fmt.Sprintf("ex6 union %d", i), ex6, 60+rng.Intn(200), i%2 == 0, gen, rng) {
			t.Fatalf("ex6 union %d: size out of range", i)
		}
	}

	n := 0
	for seed := int64(0); n < cases; seed++ {
		if seed > 100000 {
			t.Fatalf("only %d random P \\ FO queries in %d seeds", n, seed)
		}
		rng := rand.New(rand.NewSource(seed))
		qp := workload.DefaultQueryParams()
		qp.Atoms, qp.PConst = 2+rng.Intn(3), 0
		q := workload.RandomQuery(rng, qp)
		if cls, _, err := attack.Classify(q); err != nil || cls != attack.PTime || !connected(q) {
			continue
		}
		p := workload.DefaultDBParams()
		p.SeedMatches = 2 + rng.Intn(3)
		gen := func(r *rand.Rand) *db.DB { return workload.RandomDB(r, q, p) }
		// Enough components for 500 to 5,000 blocks, judged by a sample.
		per := max(gen(rand.New(rand.NewSource(seed))).NumBlocks(), 1)
		comps := 1 + (600+rng.Intn(3000))/per
		if check(fmt.Sprintf("random seed %d (%d components)", seed, comps), q, comps, n%2 == 0, gen, rng) {
			n++
		}
	}
	t.Logf("verdicts: %d certain, %d not; %d dissolutions, %d saturations; slowest coNP decision %v",
		verdicts[true], verdicts[false], effort.Dissolutions, effort.Saturations, slowest)
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("the corpus reached only one verdict: %v", verdicts)
	}
	if effort.Dissolutions == 0 || effort.Saturations == 0 {
		t.Error("no case reached a dissolution or a saturation")
	}
}
