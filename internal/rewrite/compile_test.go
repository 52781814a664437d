package rewrite

import (
	"math/rand"
	"strings"
	"testing"

	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// certain runs the eliminator with no checker, failing the test on an
// error.
func certain(t *testing.T, el *Eliminator, ix *match.Index, initial query.Valuation) bool {
	t.Helper()
	ok, err := el.CertainChecked(ix, initial, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestCompileAcyclicOrder(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	order := el.Order()
	if len(order) != 2 || order[0].Rel.Name != "R" || order[1].Rel.Name != "S" {
		t.Errorf("order = %v; want R before S (R attacks S)", order)
	}
}

func TestCompileAcyclicRejectsCyclic(t *testing.T) {
	if _, err := CompileAcyclic(workload.Q0()); err == nil {
		t.Fatal("expected error for cyclic attack graph")
	}
}

// TestCompileAcyclicParams: q0 is cyclic, but with x bound it is not
// (Lemma 6), so its order with x as a parameter exists, renders a
// rewriting in which x stays free, and, seeded with each value of x,
// agrees with the reference recursion on the instantiated query.
func TestCompileAcyclicParams(t *testing.T) {
	q := workload.Q0()
	el, err := CompileAcyclic(q, "x")
	if err != nil {
		t.Fatal(err)
	}
	if f := Format(el.Rewriting()); strings.Contains(f, "∃x") || !strings.Contains(f, "(x | ") {
		t.Errorf("rewriting %q must leave the parameter x free", f)
	}
	d := workload.Q0Instance(rand.New(rand.NewSource(3)), 40, 2)
	ix := match.NewIndex(d)
	xs := []query.Const{"absent"}
	for _, b := range d.BlocksOf(q.Atoms[0].Rel.Name) {
		xs = append(xs, b.Facts[0].Args[0])
	}
	seen := map[bool]int{}
	for _, c := range xs {
		binding := query.Valuation{"x": c}
		got, want := certain(t, el, ix, binding), CertainAcyclic(q.Substitute(binding), d)
		if got != want {
			t.Errorf("x = %s: seeded eliminator = %v, reference = %v", c, got, want)
		}
		seen[got]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Errorf("outcomes %v: the instance should make some x certain and some not", seen)
	}
}

func TestEliminatorEmptyQuery(t *testing.T) {
	el, err := CompileAcyclic(query.MustParse(""))
	if err != nil {
		t.Fatal(err)
	}
	if !certain(t, el, match.NewIndex(factsDB(t, "R(a | b)")), nil) {
		t.Error("empty query must be certain on every instance")
	}
}

// TestEliminatorDifferentialVsNaive: the compiled elimination order
// agrees with the brute-force oracle and with the per-residue recursion
// it replaces, on random acyclic instances (fixed seed).
func TestEliminatorDifferentialVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 300; trial++ {
		q := acyclicRandomQuery(rng, t)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<14 {
			continue
		}
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		got := certain(t, el, match.NewIndex(d), nil)
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("eliminator=%v naive=%v\nq = %s\norder = %v\ndb:\n%s",
				got, want, q, el.Order(), d)
		}
		if old := CertainAcyclic(q, d); old != want {
			t.Fatalf("CertainAcyclic=%v naive=%v\nq = %s\ndb:\n%s", old, want, q, d)
		}
	}
}

// TestCertainWithMatchesSubstitute: seeding the eliminator with a
// binding decides exactly the instantiated query (Lemma 6 keeps the
// compiled order valid under instantiation).
func TestCertainWithMatchesSubstitute(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	for trial := 0; trial < 150; trial++ {
		q := acyclicRandomQuery(rng, t)
		vars := q.Vars().Sorted()
		if len(vars) == 0 {
			continue
		}
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<12 {
			continue
		}
		adom := d.ActiveDomain()
		if len(adom) == 0 {
			continue
		}
		v := vars[rng.Intn(len(vars))]
		binding := query.Valuation{v: adom[rng.Intn(len(adom))]}
		el, err := CompileAcyclic(q)
		if err != nil {
			t.Fatal(err)
		}
		got := certain(t, el, match.NewIndex(d), binding)
		want, err := naive.Certain(q.Substitute(binding), d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("CertainChecked=%v naive(substituted)=%v\nq = %s\nbinding = %v\ndb:\n%s",
				got, want, q, binding, d)
		}
		if len(binding) != 1 {
			t.Fatal("CertainChecked modified the caller's valuation")
		}
	}
}

// TestEliminatorSharedAcrossGoroutines: one compiled eliminator is used
// concurrently over a shared index; run with -race.
func TestEliminatorSharedAcrossGoroutines(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	d := factsDB(t, `
		R(a | b)
		R(a | c)
		S(b | z)
		S(c | z)
	`)
	ix := match.NewIndex(d)
	done := make(chan bool, 8)
	for w := 0; w < 8; w++ {
		go func() { ok, _ := el.CertainChecked(ix, nil, nil); done <- ok }()
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("shared eliminator returned false on a certain instance")
		}
	}
}
