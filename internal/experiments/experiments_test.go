package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs the full suite in quick mode: every
// experiment must complete without error and produce output.
func TestAllExperimentsQuick(t *testing.T) {
	var buf bytes.Buffer
	r := &Runner{Out: &buf, Quick: true, Seed: 1}
	if err := r.Run("all"); err != nil {
		t.Fatalf("run all: %v\noutput so far:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, frag := range []string{
		"### E1", "### E12", "### E13", "### E14", "### E15", "### E16", "### E17", "### E21",
		"cancellation latency",                   // E16 latency table
		"context-check overhead",                 // E16 overhead table
		"per-engine stage breakdown",             // E17 stage table
		"tracing overhead",                       // E17 overhead table
		"eliminator",                             // E17 FO stage row
		"dissolutions",                           // E17 ptime counter
		"R^{+,q}",                                // E1 prints the closure
		"Markov graph (Figure 2, right)",         // E2
		"trichotomy over the literature catalog", // E3
		"classification time",                    // E4
		"FO engine scaling",                      // E5
		"P engine (dissolution) scaling",         // E6
		"coNP engine on the Theorem 3",           // E7
		"phi =",                                  // E8 rewritings
		"purification ablation",                  // E9
		"engine agreement",                       // E10
		"prior-dichotomy concordance",            // E11
		"functional-graph instances",             // E12
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q", frag)
		}
	}
	if strings.Contains(out, "false ") && strings.Contains(out, "agree") {
		// The E3 agree column must never contain "false".
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "kw15-") && strings.Contains(line, "false") {
				t.Errorf("catalog disagreement: %s", line)
			}
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	r := &Runner{Out: &buf, Quick: true}
	if err := r.Run("E99"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestIDsAndDescribe(t *testing.T) {
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("have %d experiments, want 18: %v", len(ids), ids)
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Errorf("experiment %s has no description", id)
		}
	}
	if Describe("nope") != "" {
		t.Error("Describe should return empty for unknown id")
	}
}
