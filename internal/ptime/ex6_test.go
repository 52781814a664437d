package ptime

import (
	"math/rand"
	"testing"

	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// TestDifferentialExample6 exercises the full Lemma 11 saturation +
// dissolution pipeline on the paper's Example 6 query (unsaturated, every
// mode-i atom attacked) and checks against the oracle.
func TestDifferentialExample6(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	q := query.MustParse("R(x | y), S1(y | z), S2(y | z), T#c(x, z | w), U(w | x)")
	sats, diss := 0, 0
	for trial := 0; trial < 200; trial++ {
		p := workload.DefaultDBParams()
		p.SeedMatches = 1 + rng.Intn(3)
		p.Domain = 1 + rng.Intn(2)
		p.ExtraPerBlock = 0.6
		d := workload.RandomDB(rng, q, p)
		if d.NumRepairs() > 1<<13 {
			continue
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := Certain(q, d)
		if err != nil {
			t.Fatalf("err: %v\ndb:\n%s", err, d)
		}
		if got != want {
			t.Fatalf("ptime=%v naive=%v\ndb:\n%s", got, want, d)
		}
		sats += st.Saturations
		diss += st.Dissolutions
	}
	t.Logf("saturations=%d dissolutions=%d", sats, diss)
	if sats == 0 {
		t.Error("Example 6 should exercise the saturation path")
	}
}
