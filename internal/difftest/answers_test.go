package difftest

import (
	"context"
	"slices"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/core"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
)

// TestAnswersDifferentialSeeded replays the corpus of
// TestDifferentialSeeded as non-Boolean queries. For every free set of
// one or two variables, CertainAnswersIndexedCtx must return exactly
// the candidate rows whose instantiated Boolean query the
// repair-enumeration oracle finds certain. Free sets are tallied by the
// class of q, which picks the answers path (an FO plan decides the
// instantiations itself; any other plan compiles q with the free
// variables as parameters), so the test shows that every path ran. The
// instantiations are tallied too, by the class of q with placeholder
// constants for the free variables (the class of every instantiation).
func TestAnswersDifferentialSeeded(t *testing.T) {
	const wantChecked = 520
	ctx := context.Background()
	checked := 0
	byClass, byInst := map[attack.Class]int{}, map[attack.Class]int{}
	for seed := int64(0); checked < wantChecked && seed < 5000; seed++ {
		shape := byte(seed % NumShapes)
		q, d := Generate(seed, shape)
		if d.NumRepairs() > MaxOracleRepairs {
			continue
		}
		if _, err := naive.Certain(q, d); err != nil {
			continue // raced past the oracle bound
		}
		checked++
		plan, err := core.Compile(q)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		ix := match.NewIndex(d)
		vars := q.Vars().Sorted()
		for i, v := range vars {
			frees := [][]query.Var{{v}}
			for _, w := range vars[i+1:] {
				frees = append(frees, []query.Var{v, w})
			}
			for _, free := range frees {
				inst, _, err := attack.Classify(q.Substitute(query.Placeholders(query.NewVarSet(free...))))
				if err != nil {
					t.Fatalf("seed %d free %v: classify: %v", seed, free, err)
				}
				byClass[plan.Class]++
				byInst[inst]++

				got, err := plan.CertainAnswersIndexedCtx(ctx, free, ix, core.Options{Workers: 1})
				if err != nil {
					t.Fatalf("seed %d free %v: answers: %v", seed, free, err)
				}
				cands, err := plan.EnumerateCandidates(ix, free, core.Options{}, nil)
				if err != nil {
					t.Fatalf("seed %d free %v: candidates: %v", seed, free, err)
				}
				var want query.Answers
				for _, row := range cands {
					ok, err := naive.Certain(q.Substitute(query.Binding(free, row)), d)
					if err != nil {
						t.Fatalf("seed %d free %v row %v: oracle: %v", seed, free, row, err)
					}
					if ok {
						want = append(want, row)
					}
				}
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("seed %d free %v (class %s, instances %s): answers %v, oracle %v\nquery: %s\ndb:\n%s",
						seed, free, plan.Class, inst, got, want, q, d)
				}
			}
		}
	}
	if checked < wantChecked {
		t.Fatalf("verified only %d cases, want %d", checked, wantChecked)
	}
	for _, cls := range []attack.Class{attack.FO, attack.PTime, attack.CoNPComplete} {
		if byClass[cls] == 0 {
			t.Errorf("no free set of class %s: that answers path went unchecked", cls)
		}
	}
	t.Logf("verified %d cases: free sets FO=%d P=%d coNP=%d; instances FO=%d P=%d coNP=%d",
		checked, byClass[attack.FO], byClass[attack.PTime], byClass[attack.CoNPComplete],
		byInst[attack.FO], byInst[attack.PTime], byInst[attack.CoNPComplete])
}
