package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeEvalReport(t *testing.T, name string, rows ...EvalResult) string {
	t.Helper()
	data, err := json.Marshal(EvalReport{Results: rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareEvalAllocs: shared rows must agree on allocs/op within two
// allocs plus one in 10,000, rows only one report measures are skipped,
// and reports with no row in common are refused.
func TestCompareEvalAllocs(t *testing.T) {
	artifact := writeEvalReport(t, "artifact.json",
		EvalResult{Name: "certain", Blocks: 1000, Index: "cold", AllocsPerOp: 115},
		EvalResult{Name: "certain-row", Blocks: 10000, Index: "warm", AllocsPerOp: 265035},
		EvalResult{Name: "answers", Blocks: 234, Index: "warm", Workers: 2, AllocsPerOp: 17},
	)
	within := writeEvalReport(t, "within.json",
		EvalResult{Name: "certain", Blocks: 1000, Index: "cold", AllocsPerOp: 115 + 2},
		EvalResult{Name: "certain-row", Blocks: 10000, Index: "warm", AllocsPerOp: 265035 + 28},
		EvalResult{Name: "answers", Blocks: 234, Index: "warm", Workers: 1, AllocsPerOp: 90},
	)
	if err := CompareEvalAllocs(artifact, within); err != nil {
		t.Fatalf("drift within the tolerance: %v", err)
	}
	beyond := writeEvalReport(t, "beyond.json",
		EvalResult{Name: "certain", Blocks: 1000, Index: "cold", AllocsPerOp: 115 - 3},
	)
	if err := CompareEvalAllocs(artifact, beyond); err == nil || !strings.Contains(err.Error(), "certain/1000/cold") {
		t.Fatalf("drift beyond the tolerance: got %v, want an error naming certain/1000/cold", err)
	}
	disjoint := writeEvalReport(t, "disjoint.json",
		EvalResult{Name: "certain", Blocks: 10000, Index: "cold", AllocsPerOp: 277},
	)
	if err := CompareEvalAllocs(artifact, disjoint); err == nil {
		t.Fatal("reports sharing no row compared clean")
	}
}
