package core

import (
	"fmt"
	"math/rand"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/query"
)

// Possible decides POSSIBILITY(q): whether q is true in SOME repair of d
// (the dual semantics mentioned in the paper's introduction). For
// conjunctive queries this is polynomial for every q: an embedding whose
// image contains no two distinct key-equal facts extends to a repair, and
// conversely an embedding inside a repair is such an embedding.
func Possible(q query.Query, d *db.DB) bool {
	if q.Empty() {
		return true
	}
	possible := false
	match.NewIndex(d).Match(q, query.Valuation{}, func(v query.Valuation) bool {
		facts, err := db.GroundQuery(q, v)
		if err != nil {
			return true
		}
		if db.ConsistentSet(facts) {
			possible = true
			return false
		}
		return true
	})
	return possible
}

// CertainFractionChecked estimates the fraction of repairs of d that
// satisfy q by uniform sampling: each block independently picks a
// uniform fact, which induces the uniform distribution over repairs.
// This approximates the counting problem #CERTAINTY(q) studied by
// Maslowski and Wijsen (cited as [12] in the paper); the decision
// problem's certainty corresponds to a fraction of 1. It is the
// graceful-degradation target of budget-exhausted coNP evaluations.
// The checker is polled once per sampled repair (a sample is coarse
// work — a full repair draw plus a satisfaction test — so the poll is
// immediate, not amortized); a nil checker enforces nothing.
func CertainFractionChecked(q query.Query, d *db.DB, samples int, rng *rand.Rand, chk *evalctx.Checker) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("core: need a positive sample count")
	}
	blocks := d.Blocks()
	hit := 0
	repair := make([]db.Fact, len(blocks))
	for s := 0; s < samples; s++ {
		if err := chk.Check(); err != nil {
			return 0, err
		}
		for i, b := range blocks {
			repair[i] = b.Facts[rng.Intn(len(b.Facts))]
		}
		if match.Satisfies(q, db.FromFacts(repair...)) {
			hit++
		}
	}
	return float64(hit) / float64(samples), nil
}
