package difftest

import (
	"testing"

	"cqa/internal/attack"
	"cqa/internal/workload"
)

// TestDifferentialSeeded runs the deterministic corpus: at least 500
// verified cases in which every applicable engine agrees with the
// brute-force oracle, covering all three complexity classes of the
// trichotomy. This is the `make check` entry point of the fuzz suite.
func TestDifferentialSeeded(t *testing.T) {
	const wantChecked = 520
	checked, skipped := 0, 0
	byClass := map[attack.Class]int{}
	for seed := int64(0); checked < wantChecked && seed < 5000; seed++ {
		shape := byte(seed % NumShapes)
		q, d := Generate(seed, shape)
		sk, err := Check(q, d)
		if err != nil {
			t.Fatalf("seed %d shape %d: %v", seed, shape, err)
		}
		if sk {
			skipped++
			continue
		}
		checked++
		cls, _, cerr := attack.Classify(q)
		if cerr != nil {
			t.Fatalf("seed %d: classify: %v", seed, cerr)
		}
		byClass[cls]++
	}
	if checked < 500 {
		t.Fatalf("verified only %d cases (%d skipped over the oracle bound); want >= 500", checked, skipped)
	}
	for _, cls := range []attack.Class{attack.FO, attack.PTime, attack.CoNPComplete} {
		if byClass[cls] == 0 {
			t.Errorf("no verified case of class %s — the corpus no longer covers the trichotomy", cls)
		}
	}
	t.Logf("verified %d cases (%d skipped): FO=%d P=%d coNP=%d",
		checked, skipped, byClass[attack.FO], byClass[attack.PTime], byClass[attack.CoNPComplete])
}

// FuzzDifferential is the native fuzz target. The raw (seed, shape) pair
// is expanded into a query + uncertain database by the deterministic
// generator, so every input the fuzzer mutates is a valid instance and
// the only way to fail is a genuine engine/oracle disagreement (or an
// engine error). Failures are minimized and saved under testdata/fuzz by
// the Go fuzzing runtime.
func FuzzDifferential(f *testing.F) {
	for i := int64(0); i < 4*NumShapes; i++ {
		f.Add(i*31, byte(i%NumShapes))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape byte) {
		q, d := Generate(seed, shape)
		if _, err := Check(q, d); err != nil {
			t.Fatalf("seed %d shape %d: %v", seed, shape%NumShapes, err)
		}
	})
}

// TestSharedPoolDifferential replays generated cases with their
// per-variable pools merged (x_3 and y_3 both become 3), so a constant
// can sit under two variables of the query. The generators type every
// database they make, so the seeded corpus alone cannot show whether
// an engine leans on typing; here none may. Cases the merge makes
// illegal (an inconsistent mode-c relation) are skipped.
func TestSharedPoolDifferential(t *testing.T) {
	seeds := int64(1000)
	if testing.Short() {
		seeds = 300
	}
	checked, ptimeCases := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		shape := byte(seed % NumShapes)
		q, d := Generate(seed, shape)
		d = workload.SharePools(d)
		if !d.ConsistentFor() {
			continue
		}
		sk, err := Check(q, d)
		if err != nil {
			t.Fatalf("seed %d shape %d, shared pools: %v", seed, shape, err)
		}
		if sk {
			continue
		}
		checked++
		if cls, _, _ := attack.Classify(q); cls == attack.PTime {
			ptimeCases++
		}
	}
	t.Logf("verified %d shared-pool cases, %d in P \\ FO", checked, ptimeCases)
	if ptimeCases == 0 {
		t.Error("no shared-pool case in P \\ FO: the P engine's untyped path went unchecked")
	}
}
