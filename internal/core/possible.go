package core

import (
	"cqa/internal/db"
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
