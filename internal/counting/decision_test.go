package counting_test

import (
	"context"
	"math/rand"
	"testing"

	"cqa/internal/core"
	"cqa/internal/counting"
	"cqa/internal/match"
	"cqa/internal/workload"
)

// TestCountConsistentWithDecision: sat == total iff certain; sat > 0 iff
// possible.
func TestCountConsistentWithDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	for trial := 0; trial < 200; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		q := workload.RandomQuery(rng, p)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		res, err := counting.SatisfyingRepairs(q, d)
		if err != nil {
			continue
		}
		plan, errC := core.Compile(q)
		if errC != nil {
			t.Fatal(errC)
		}
		certain, errC := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{Engine: core.EngineCoNP})
		if errC != nil {
			t.Fatal(errC)
		}
		if certain.Certain != (res.Satisfying.Cmp(res.Total) == 0) {
			t.Fatalf("certain=%v but sat=%v/%v\nq=%s\ndb:\n%s",
				certain.Certain, res.Satisfying, res.Total, q, d)
		}
		if core.Possible(q, d) != (res.Satisfying.Sign() > 0) {
			t.Fatalf("possible mismatch: sat=%v\nq=%s\ndb:\n%s", res.Satisfying, q, d)
		}
	}
}
