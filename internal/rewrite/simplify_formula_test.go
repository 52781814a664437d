package rewrite

import (
	"math/rand"
	"strings"
	"testing"

	"cqa/internal/query"
	"cqa/internal/workload"
)

// TestSimplifyExample5Exact: the normalized rewriting of Example 5 is
// exactly the paper's formula — no residual "true" conjuncts.
func TestSimplifyExample5Exact(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | 'b')")
	f, err := RewritingPretty(q)
	if err != nil {
		t.Fatal(err)
	}
	s := Format(f)
	if strings.Contains(s, "true") {
		t.Errorf("simplified rewriting still contains 'true': %s", s)
	}
	want := "∃x∃y( R(x | y) ∧ ∀y'( R(x | y') → S(y' | 'b') ∧ ∀w( S(y' | w) → w = 'b' ) ) )"
	if s != want {
		t.Errorf("rewriting:\n got %s\nwant %s", s, want)
	}
}

// TestSimplifyPreservesSemantics: Simplify never changes evaluation.
func TestSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	tested := 0
	for trial := 0; trial < 400 && tested < 60; trial++ {
		q := acyclicRandomQuery(rng, t)
		f, err := Rewriting(q)
		if err != nil {
			t.Fatal(err)
		}
		sf := Simplify(f)
		p := workload.DefaultDBParams()
		p.SeedMatches = 2
		p.Noise = 1
		d := workload.RandomDB(rng, q, p)
		if len(d.ActiveDomain()) > 7 || len(q.Vars()) > 4 {
			continue
		}
		tested++
		if modelCheck(f, d) != modelCheck(sf, d) {
			t.Fatalf("Simplify changed semantics on %s\nraw: %s\nsimplified: %s",
				q, Format(f), Format(sf))
		}
	}
	if tested < 20 {
		t.Fatalf("only %d instances tested", tested)
	}
}

func TestSimplifyConstants(t *testing.T) {
	if _, ok := Simplify(EqF{L: query.C("a"), R: query.C("a")}).(TrueF); !ok {
		t.Error("a = a should simplify to true")
	}
	if _, ok := Simplify(EqF{L: query.C("a"), R: query.C("b")}).(FalseF); !ok {
		t.Error("a = b should simplify to false")
	}
	if _, ok := Simplify(AndF{Fs: []Formula{TrueF{}, TrueF{}}}).(TrueF); !ok {
		t.Error("true ∧ true should be true")
	}
	if _, ok := Simplify(ForallF{Vars: []query.Var{"x"}, F: TrueF{}}).(TrueF); !ok {
		t.Error("∀x true should be true")
	}
	if _, ok := Simplify(ImpliesF{L: FalseF{}, R: FalseF{}}).(TrueF); !ok {
		t.Error("false → false should be true")
	}
}
