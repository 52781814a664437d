package difftest

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"cqa/internal/core"
	"cqa/internal/counting"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"

	"cqa/internal/db"
)

// CheckCounting cross-checks the exact repair-counting engine against the
// brute-force oracle on one generated case, and additionally checks the
// decision/counting consistency law: the query is certain iff every repair
// satisfies it, i.e. Satisfying == Total. It returns skipped=true when the
// instance exceeds the oracle bound (nothing was verified) and a non-nil
// error describing the first disagreement otherwise.
func CheckCounting(q query.Query, d *db.DB) (skipped bool, err error) {
	if d.NumRepairs() > MaxOracleRepairs {
		return true, nil
	}
	sat, total, err := naive.CountSatisfyingRepairs(q, d)
	if err != nil {
		return true, nil // raced past the oracle bound; nothing to compare
	}

	res, err := counting.SatisfyingRepairs(q, d)
	if err != nil {
		return false, fmt.Errorf("counting: %w", err)
	}
	mismatch := func(field string, got *big.Int, want int) error {
		return fmt.Errorf("counting %s = %v, oracle = %d\nquery: %s\ndb (%d facts, %g repairs):\n%s",
			field, got, want, q, d.Len(), d.NumRepairs(), d)
	}
	if res.Total.Cmp(big.NewInt(int64(total))) != 0 {
		return false, mismatch("Total", res.Total, total)
	}
	if res.Satisfying.Cmp(big.NewInt(int64(sat))) != 0 {
		return false, mismatch("Satisfying", res.Satisfying, sat)
	}
	if !res.Exact || res.Confidence != 0 {
		return false, fmt.Errorf("in-budget count reported exact=%v confidence=%v\nquery: %s",
			res.Exact, res.Confidence, q)
	}
	if want := float64(sat) / float64(total); math.Abs(res.Fraction-want) > 1e-9 {
		return false, fmt.Errorf("counting Fraction = %v, oracle = %v\nquery: %s\ndb:\n%s",
			res.Fraction, want, q, d)
	}

	// Consistency with the decision engines: #CERTAINTY says the query is
	// certain exactly when no repair falsifies it.
	plan, err := core.Compile(q)
	if err != nil {
		return false, fmt.Errorf("compile: %w", err)
	}
	dec, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{})
	if err != nil {
		return false, fmt.Errorf("CertainIndexedCtx: %w", err)
	}
	allSat := res.Satisfying.Cmp(res.Total) == 0
	if allSat != dec.Certain {
		return false, fmt.Errorf("counting says %v/%v repairs satisfy but CertainIndexedCtx/%s = %v\nquery: %s\ndb:\n%s",
			res.Satisfying, res.Total, dec.Engine, dec.Certain, q, d)
	}
	return false, nil
}
