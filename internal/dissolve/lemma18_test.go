package dissolve

import (
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// TestLemma18Semantics checks, by enumeration on small q0 instances, the
// meaning the paper assigns to the T-facts of a component D:
//
//  1. for every repair r of db, there exists µ in ΘD (a T-row of D) with
//     r |= µ(q0); and
//  2. for every µ in ΘD, there exists a repair r of db with r |= µ(q0)
//     and r |≠ µ'(q0) for every other µ' in ΘD.
func TestLemma18Semantics(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	q := workload.Q0()
	checked := 0
	for trial := 0; trial < 400 && checked < 40; trial++ {
		raw := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if raw.NumRepairs() > 1<<10 {
			continue
		}
		gd, gf := prepare(t, q, raw)
		if gd.Len() == 0 || len(match.AllMatches(q, gd)) == 0 {
			continue
		}
		dd, _ := mustDissolve(t, q)
		nd, st, err := dd.TransformDB(gf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.TFacts == 0 {
			continue
		}
		checked++

		// Collect ΘD: the valuation per T-fact (over cycle vars + ȳ),
		// grouped by component.
		type theta struct {
			comp query.Const
			val  query.Valuation
		}
		var thetas []theta
		for _, f := range nd.FactsOf(dd.TRel.Name) {
			v := query.Valuation{}
			for i, x := range dd.C {
				v[x] = f.Args[1+i]
			}
			for i, y := range dd.YVars {
				v[y] = f.Args[1+len(dd.C)+i]
			}
			thetas = append(thetas, theta{comp: f.Args[0], val: v})
		}

		q0 := dd.Q0
		// Condition 1: every repair of gd satisfies some µ(q0)...
		// whenever its component's gblocks are touched. For q0 (all atoms
		// in q0), this is: every repair satisfies at least one µ.
		cond1 := true
		gd.Repairs(func(facts []db.Fact) bool {
			r := db.FromFacts(facts...)
			any := false
			for _, th := range thetas {
				if match.Satisfies(q0.Substitute(th.val), r) {
					any = true
					break
				}
			}
			if !any {
				cond1 = false
				return false
			}
			return true
		})
		if !cond1 {
			t.Fatalf("Lemma 18 condition 1 violated\ngd:\n%s\nnd:\n%s", gd, nd)
		}

		// Condition 2: each µ is exclusively realizable within its
		// component: some repair satisfies µ(q0) and no other µ' of the
		// same component.
		for _, th := range thetas {
			okExclusive := false
			gd.Repairs(func(facts []db.Fact) bool {
				r := db.FromFacts(facts...)
				if !match.Satisfies(q0.Substitute(th.val), r) {
					return true
				}
				for _, other := range thetas {
					if other.comp != th.comp || other.val.Key() == th.val.Key() {
						continue
					}
					if match.Satisfies(q0.Substitute(other.val), r) {
						return true // not exclusive; try another repair
					}
				}
				okExclusive = true
				return false
			})
			if !okExclusive {
				t.Fatalf("Lemma 18 condition 2 violated for µ = %v\ngd:\n%s", th.val, gd)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d instances checked", checked)
	}
}
