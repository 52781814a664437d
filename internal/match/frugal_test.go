package match

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// satisfiedInstantiations returns, for a repair r and a variable set X,
// the canonical keys of the valuations theta over X such that
// r |= theta(q) — the data underlying the frugality preorder of the
// paper's Section 3.
func satisfiedInstantiations(q query.Query, r *db.DB, x query.VarSet) map[string]bool {
	out := make(map[string]bool)
	NewIndex(r).Match(q, query.Valuation{}, func(v query.Valuation) bool {
		theta := query.Valuation{}
		for y, c := range v {
			if x.Has(y) {
				theta[y] = c
			}
		}
		out[theta.Key()] = true
		return true
	})
	return out
}

// precedesFrugal reports r1 ⪯X_q r2: every X-instantiation of q
// satisfied by r1 is satisfied by r2.
func precedesFrugal(q query.Query, x query.VarSet, r1, r2 *db.DB) bool {
	s1 := satisfiedInstantiations(q, r1, x)
	s2 := satisfiedInstantiations(q, r2, x)
	for k := range s1 {
		if !s2[k] {
			return false
		}
	}
	return true
}

// frugalRepairs enumerates the X-frugal repairs of d (the minimal
// elements of the ⪯X_q preorder) by exhaustive enumeration; it is the
// reference the Lemma 2 tests below validate on small databases.
func frugalRepairs(q query.Query, x query.VarSet, d *db.DB) ([][]db.Fact, error) {
	const maxRepairs = 1 << 14
	if d.NumRepairs() > maxRepairs {
		return nil, fmt.Errorf("match: %g repairs exceed the frugality bound %d", d.NumRepairs(), maxRepairs)
	}
	type entry struct {
		facts []db.Fact
		sat   map[string]bool
	}
	var all []entry
	d.Repairs(func(facts []db.Fact) bool {
		r := db.FromFacts(facts...)
		all = append(all, entry{
			facts: append([]db.Fact(nil), facts...),
			sat:   satisfiedInstantiations(q, r, x),
		})
		return true
	})
	subset := func(a, b map[string]bool) bool {
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	var out [][]db.Fact
	for i, e := range all {
		minimal := true
		for j, f := range all {
			if i == j {
				continue
			}
			// f ⪯ e strictly: sat(f) ⊂ sat(e).
			if subset(f.sat, e.sat) && !subset(e.sat, f.sat) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, e.facts)
		}
	}
	return out, nil
}

// formatRepair renders a repair deterministically for diagnostics.
func formatRepair(facts []db.Fact) string {
	parts := make([]string, len(facts))
	for i, f := range facts {
		parts[i] = f.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func TestSatisfiedInstantiations(t *testing.T) {
	q := query.MustParse("R(x | y)")
	d := factsDB(t, `
		R(a | 1)
		R(b | 2)
	`)
	sat := satisfiedInstantiations(q, d, query.NewVarSet("x"))
	if len(sat) != 2 || !sat["x=a"] || !sat["x=b"] {
		t.Errorf("sat = %v", sat)
	}
	// Empty X: any embedding yields the single empty instantiation.
	sat = satisfiedInstantiations(q, d, query.NewVarSet())
	if len(sat) != 1 || !sat[""] {
		t.Errorf("sat for empty X = %v", sat)
	}
}

func TestPrecedesFrugal(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	r1 := factsDB(t, "R(a | b)\nS(b | c)")
	r2 := factsDB(t, "R(a | dead)\nS(b | c)")
	x := query.NewVarSet("x")
	if !precedesFrugal(q, x, r2, r1) {
		t.Error("r2 satisfies nothing; it precedes everything")
	}
	if precedesFrugal(q, x, r1, r2) {
		t.Error("r1 satisfies x=a which r2 does not")
	}
}

func TestFrugalRepairsSimple(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := factsDB(t, `
		R(a | b)
		R(a | dead)
		S(b | c)
	`)
	frugal, err := frugalRepairs(q, query.NewVarSet("x"), d)
	if err != nil {
		t.Fatal(err)
	}
	// The repair choosing R(a|dead) satisfies no instantiation: it is the
	// unique frugal repair.
	if len(frugal) != 1 {
		t.Fatalf("%d frugal repairs", len(frugal))
	}
	found := false
	for _, f := range frugal[0] {
		if f.String() == "R(a | dead)" {
			found = true
		}
	}
	if !found {
		t.Errorf("frugal repair should pick R(a | dead): %s", formatRepair(frugal[0]))
	}
}

// TestLemma2 validates Lemma 2 on random instances: every repair
// satisfies q iff every X-frugal repair satisfies q, for random X.
func TestLemma2(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	checked := 0
	for trial := 0; trial < 200 && checked < 120; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		q := workload.RandomQuery(rng, p)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<10 {
			continue
		}
		// Random X ⊆ vars(q).
		x := query.NewVarSet()
		for _, v := range q.Vars().Sorted() {
			if rng.Intn(2) == 0 {
				x.Add(v)
			}
		}
		allSat := true
		d.Repairs(func(facts []db.Fact) bool {
			if !Satisfies(q, db.FromFacts(facts...)) {
				allSat = false
				return false
			}
			return true
		})
		frugal, err := frugalRepairs(q, x, d)
		if err != nil {
			t.Fatal(err)
		}
		frugalSat := true
		for _, facts := range frugal {
			if !Satisfies(q, db.FromFacts(facts...)) {
				frugalSat = false
				break
			}
		}
		if allSat != frugalSat {
			t.Fatalf("Lemma 2 violated: all=%v frugal=%v\nq=%s X=%s\ndb:\n%s",
				allSat, frugalSat, q, x, d)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d instances checked", checked)
	}
}

func TestFrugalRepairsBound(t *testing.T) {
	q := query.MustParse("R(x | y)")
	d := db.New()
	rel := q.Atoms[0].Rel
	for i := 0; i < 20; i++ {
		key := query.Const(string(rune('a' + i)))
		d.Add(db.Fact{Rel: rel, Args: []query.Const{key, "1"}})
		d.Add(db.Fact{Rel: rel, Args: []query.Const{key, "2"}})
	}
	if _, err := frugalRepairs(q, query.NewVarSet("x"), d); err == nil {
		t.Error("2^20 repairs should exceed the bound")
	}
}
