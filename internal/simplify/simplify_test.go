package simplify

import (
	"math/rand"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/workload"
)

func factsDB(t *testing.T, lines string) *db.DB {
	t.Helper()
	d, err := db.ParseFacts(nil, lines)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestElimPatternsRepeatedVar(t *testing.T) {
	q := query.MustParse("R(x | y, x)")
	step, changed := ElimPatterns(q)
	if !changed {
		t.Fatal("expected a change")
	}
	a := step.Q.Atoms[0]
	if a.Rel.Arity != 2 || a.HasRepeatedVars() {
		t.Errorf("rewritten atom = %s", a)
	}
	d := factsDB(t, "R(a | b, a)")
	nd, err := step.TransformDB(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Len() != 1 || len(nd.Facts()[0].Args) != 2 {
		t.Errorf("projected db:\n%s", nd)
	}
}

func TestElimPatternsConstants(t *testing.T) {
	// Constant at non-key of a simple-key atom: projected away.
	q := query.MustParse("R(x | 'c', y)")
	step, changed := ElimPatterns(q)
	if !changed {
		t.Fatal("expected change")
	}
	if step.Q.Atoms[0].HasConstants() {
		t.Errorf("constants remain: %s", step.Q)
	}
	// Constant key of a simple-key atom is allowed to stay.
	q2 := query.MustParse("R('c' | y)")
	if _, changed := ElimPatterns(q2); changed {
		t.Error("constant simple-key should be untouched")
	}
	// Constant inside a composite key with variables: dropped from key.
	q3 := query.MustParse("R(x, 'c' | y)")
	step3, changed := ElimPatterns(q3)
	if !changed {
		t.Fatal("expected change")
	}
	if step3.Q.Atoms[0].Rel.KeyLen != 1 {
		t.Errorf("key should shrink to {x}: %s", step3.Q)
	}
	// All-constant key keeps one position.
	q4 := query.MustParse("R('a', 'b' | y)")
	step4, changed := ElimPatterns(q4)
	if !changed {
		t.Fatal("expected change")
	}
	r4 := step4.Q.Atoms[0].Rel
	if r4.KeyLen != 1 || r4.Arity != 2 {
		t.Errorf("signature [%d,%d], want [2,1]: %s", r4.Arity, r4.KeyLen, step4.Q)
	}
}

func TestElimPatternsPreservesCertainty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 200; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		p.PConst = 0.25
		q := workload.RandomQuery(rng, p)
		step, changed := ElimPatterns(q)
		if !changed {
			continue
		}
		d, _ := match.Purify(q, workload.RandomDB(rng, q, workload.DefaultDBParams()), nil)
		if d.NumRepairs() > 1<<12 {
			continue
		}
		nd, err := step.TransformDB(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := naive.Certain(step.Q, nd)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("elim changed certainty %v -> %v\nq=%s -> %s\ndb:\n%s\nnew:\n%s",
				want, got, q, step.Q, d, nd)
		}
	}
}

func TestPackCompositeKeys(t *testing.T) {
	q := query.MustParse("R(x, y | z), S(y, z | x)")
	step, changed, err := PackCompositeKeys(q)
	if err != nil || !changed {
		t.Fatalf("pack: %v %v", changed, err)
	}
	for _, a := range step.Q.Atoms {
		if a.Rel.Mode == schema.ModeI && !a.Rel.SimpleKey() {
			t.Errorf("mode-i atom %s still composite", a)
		}
	}
	d := factsDB(t, `
		R(a, b | c)
		S(b, c | a)
	`)
	nd, err := step.TransformDB(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each original fact becomes main + enc + dec.
	if nd.Len() != 6 {
		t.Errorf("transformed db has %d facts, want 6:\n%s", nd.Len(), nd)
	}
	if !nd.ConsistentFor() {
		t.Errorf("enc/dec must be consistent:\n%s", nd)
	}
}

func TestPackPreservesClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 400; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(4)
		p.PConst = 0
		q := workload.RandomQuery(rng, p)
		if func() bool {
			for _, a := range q.Atoms {
				if a.HasRepeatedVars() {
					return true
				}
			}
			return false
		}() {
			continue
		}
		step, changed, err := PackCompositeKeys(q)
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			continue
		}
		before, _, err := attack.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		after, _, err := attack.Classify(step.Q)
		if err != nil {
			t.Fatal(err)
		}
		// Lemma 12 only promises strong-cycle-freeness is preserved, but
		// our Enc/Dec construction is designed to preserve the whole
		// class; flag any deviation for inspection.
		if (before == attack.CoNPComplete) != (after == attack.CoNPComplete) {
			t.Fatalf("packing moved the coNP boundary: %v -> %v\n%s -> %s",
				before, after, q, step.Q)
		}
		if before != attack.CoNPComplete && after == attack.CoNPComplete {
			t.Fatalf("packing introduced a strong cycle: %s -> %s", q, step.Q)
		}
	}
}

func TestPackRejectsPatterns(t *testing.T) {
	if _, _, err := PackCompositeKeys(query.MustParse("R(x, 'c' | y)")); err == nil {
		t.Error("constant in composite key should be rejected")
	}
	if _, _, err := PackCompositeKeys(query.MustParse("R(x, y | x)")); err == nil {
		t.Error("repeated variable should be rejected")
	}
}

// TestIsSaturatedExample6 reproduces Definition 3 on Example 6: q is not
// saturated; q' = q ∪ {S^c(y | z)} is.
func TestIsSaturatedExample6(t *testing.T) {
	q := query.MustParse("R(x | y), S1(y | z), S2(y | z), T#c(x, z | w), U(w | x)")
	sat, err := isSaturated(t, q)
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Error("Example 6 query is not saturated")
	}
	q2 := q.Add(query.NewAtom(schema.NewConsistent("Ssat", 2, 1), query.V("y"), query.V("z")))
	sat2, err := isSaturated(t, q2)
	if err != nil {
		t.Fatal(err)
	}
	if !sat2 {
		t.Error("Example 6 query plus S^c(y|z) is saturated")
	}
}

func TestSaturateProducesSaturated(t *testing.T) {
	q := query.MustParse("R(x | y), S1(y | z), S2(y | z), T#c(x, z | w), U(w | x)")
	final, steps := q, 0
	for ; steps < 20; steps++ {
		step, more, err := Saturate(final)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		final = step.Q
	}
	if steps == 0 {
		t.Fatal("expected at least one saturation step")
	}
	sat, err := isSaturated(t, final)
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Errorf("Saturate result not saturated: %s", final)
	}
	// Saturation adds only mode-c atoms: incnt unchanged.
	if final.InconsistencyCount() != q.InconsistencyCount() {
		t.Error("saturation changed incnt")
	}
}

func TestNormalizeQuery(t *testing.T) {
	q := query.MustParse("R(x, y | z, x), S(y | z)")
	n, err := NormalizeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range n.Atoms {
		if a.Rel.Mode == schema.ModeI && !a.Rel.SimpleKey() {
			t.Errorf("mode-i atom %s not simple-key after normalization", a)
		}
		if a.HasRepeatedVars() {
			t.Errorf("atom %s still has repeated variables", a)
		}
	}
	sat, err := isSaturated(t, n)
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Errorf("normalized query not saturated: %s", n)
	}
	// incnt never grows: saturation adds only mode-c atoms.
	if n.InconsistencyCount() > q.InconsistencyCount()+1 {
		t.Errorf("incnt grew unexpectedly: %d -> %d", q.InconsistencyCount(), n.InconsistencyCount())
	}
}

// TestTransformNameCollision: the relations ElimPatterns and
// PackCompositeKeys introduce are named after the atom (R_p, R_k), not
// freshly; when the query already uses that name under another
// signature, the transformed database would give one name two
// signatures, which TransformDB reports as an error.
func TestTransformNameCollision(t *testing.T) {
	elim, changed := ElimPatterns(query.MustParse("R(x | 'c'), R_p(x | y, z)"))
	if !changed {
		t.Fatal("expected elim-patterns to change the query")
	}
	if _, err := elim.TransformDB(factsDB(t, "R(a | c)\nR_p(a | b, d)"), nil); err == nil {
		t.Error("elim-patterns merged R_p[1,1] and R_p[3,1] into one database")
	}
	for _, qs := range []string{"R(x, y | z), R_k(x | y)", "R_k(x | y), R(x, y | z)"} {
		pack, changed, err := PackCompositeKeys(query.MustParse(qs))
		if err != nil || !changed {
			t.Fatalf("pack %s: %v %v", qs, changed, err)
		}
		if _, err := pack.TransformDB(factsDB(t, "R(a, b | c)\nR_k(a | b)"), nil); err == nil {
			t.Errorf("pack-keys on %s merged R_k[4,1] and R_k[2,1] into one database", qs)
		}
	}
}

// isSaturated reports whether q is saturated (Definition 3): Saturate
// finds no step.
func isSaturated(t *testing.T, q query.Query) (bool, error) {
	t.Helper()
	_, more, err := Saturate(q)
	return !more, err
}
