package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/rewrite"
	"cqa/internal/workload"
)

// TestPlanReuseAgreesWithOracle: one compiled plan answers many
// databases, agreeing with the brute-force oracle and with a plan
// compiled afresh for each database.
func TestPlanReuseAgreesWithOracle(t *testing.T) {
	for _, qs := range []string{
		"R(x | y), S(y | z)",   // FO
		"R0(x | y), S0(y | x)", // P\FO
		"R(x | y), S(u | y)",   // coNP-complete
	} {
		q := query.MustParse(qs)
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 25; trial++ {
			d := workload.RandomDB(rng, q, workload.DefaultDBParams())
			if d.NumRepairs() > 1<<12 {
				continue
			}
			want, err := naive.Certain(q, d)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.CertainIndexedCtx(context.Background(), match.NewIndex(d), Options{})
			if err != nil {
				t.Fatalf("%s: %v", qs, err)
			}
			if res.Certain != want {
				t.Errorf("%s trial %d: plan=%v oracle=%v", qs, trial, res.Certain, want)
			}
			fresh, err := evalCertain(q, d, Options{})
			if err != nil || fresh != res {
				t.Errorf("%s trial %d: fresh plan %+v (%v) != reused plan %+v", qs, trial, fresh, err, res)
			}
		}
	}
}

func TestCompileBuildsFormulaOnlyForFO(t *testing.T) {
	p, err := Compile(query.MustParse("R(x | y), S(y | z)"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Class != FO || p.Elim == nil {
		t.Fatalf("FO plan should carry an eliminator: class=%v elim=%v", p.Class, p.Elim)
	}
	if f := rewrite.Format(p.Elim.Rewriting()); f == "" {
		t.Error("FO plan renders an empty rewriting")
	}
	if p.Key() != "R(x | y), S(y | z)" {
		t.Errorf("key = %q", p.Key())
	}
	p, err = Compile(workload.Q0())
	if err != nil {
		t.Fatal(err)
	}
	if p.Class != PTime || p.Elim != nil {
		t.Errorf("non-FO plan should have no eliminator: class=%v elim=%v", p.Class, p.Elim)
	}
}

func TestPlanForcedEngineErrors(t *testing.T) {
	p, err := Compile(workload.Q0())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CertainIndexedCtx(context.Background(), match.NewIndex(nil), Options{Engine: EngineFO}); err == nil {
		t.Error("FO engine on a cyclic plan must error")
	}
	if _, err := p.CertainIndexedCtx(context.Background(), match.NewIndex(nil), Options{Engine: Engine(99)}); err == nil {
		t.Error("unknown engine must error")
	}
}

func TestNormalize(t *testing.T) {
	q1, k1, err := Normalize("  S(y | z) ,  R(x | y)  ")
	if err != nil {
		t.Fatal(err)
	}
	q2, k2, err := Normalize("R(x | y), S(y | z)")
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("keys differ: %q vs %q", k1, k2)
	}
	if !q1.Equal(q2) || q1.String() != q2.String() {
		t.Errorf("normalized queries differ: %s vs %s", q1, q2)
	}
	// Constants and modes survive the round trip.
	_, k3, err := Normalize("T#c(x | z), S(y | 'b')")
	if err != nil {
		t.Fatal(err)
	}
	if k3 != "S(y | 'b'), T#c(x | z)" {
		t.Errorf("canonical key = %q", k3)
	}
	if _, _, err := Normalize("R(("); err == nil {
		t.Error("syntax error must be reported")
	}
	if _, _, err := Normalize("R(x | y), R(y | z)"); err == nil {
		t.Error("self-join must be rejected")
	}
}

func TestPlanCertainAnswersMatchesPackageLevel(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		got, err := p.CertainAnswersIndexedCtx(context.Background(), []query.Var{"x"}, match.NewIndex(d), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := evalAnswers(q, []query.Var{"x"}, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: reused plan answers %v, fresh plan answers %v", trial, got, want)
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("trial %d: answer %d differs: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
	var fv *FreeVarError
	if _, err := p.CertainAnswersIndexedCtx(context.Background(), []query.Var{"nope"}, match.NewIndex(nil), Options{}); !errors.As(err, &fv) || fv.Var != "nope" {
		t.Errorf("unknown free variable: err = %v, want *FreeVarError for nope", err)
	}
}

// TestCertainAnswersParallelMatchesSequential: the bounded worker pool
// returns exactly the answers of the sequential path, in the same order,
// for every trichotomy class. Run with -race to exercise the pool.
func TestCertainAnswersParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		qs   string
		free []query.Var
	}{
		{"R(x | y), S(y | z)", []query.Var{"x"}},      // FO: compiled eliminator
		{"R0(x | y), S0(y | x)", []query.Var{"x"}},    // P\FO
		{"R(x | y), S(u | y)", []query.Var{"x", "u"}}, // coNP-complete
	} {
		q := query.MustParse(tc.qs)
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(61))
		for trial := 0; trial < 15; trial++ {
			d := workload.RandomDB(rng, q, workload.DefaultDBParams())
			if d.NumRepairs() > 1<<12 {
				continue
			}
			seq, err := p.CertainAnswersIndexedCtx(context.Background(), tc.free, match.NewIndex(d), Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s: sequential: %v", tc.qs, err)
			}
			par, err := p.CertainAnswersIndexedCtx(context.Background(), tc.free, match.NewIndex(d), Options{Workers: 8})
			if err != nil {
				t.Fatalf("%s: parallel: %v", tc.qs, err)
			}
			if len(seq) != len(par) {
				t.Fatalf("%s trial %d: sequential %v != parallel %v", tc.qs, trial, seq, par)
			}
			for i := range seq {
				if !slices.Equal(seq[i], par[i]) {
					t.Fatalf("%s trial %d: answer %d: %v != %v (order must be deterministic)",
						tc.qs, trial, i, seq[i], par[i])
				}
			}
		}
	}
}

// TestCertainAnswersSharedIndexConcurrent: concurrent requests share one
// snapshot index while each runs its own worker pool; run with -race.
func TestCertainAnswersSharedIndexConcurrent(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	dp := workload.DefaultDBParams()
	dp.SeedMatches = 8
	d := workload.RandomDB(rng, q, dp)
	ix := match.NewIndex(d)
	want, err := p.CertainAnswersIndexedCtx(context.Background(), []query.Var{"x"}, ix, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.CertainAnswersIndexedCtx(context.Background(), []query.Var{"x"}, ix, Options{Workers: 4})
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(want) {
				t.Errorf("concurrent request: %v != %v", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestCandidateChecksRetainNothing: a P∖FO answers request checks its
// candidates with one plan of q with x as a parameter, compiled for the
// request, whose instantiations are FO (Lemma 6); its eliminator holds
// evaluation state sized to the relations. That state is garbage once
// the request returns: repeated requests over one database must not
// grow the heap that survives a collection.
func TestCandidateChecksRetainNothing(t *testing.T) {
	p, err := Compile(query.MustParse("R0(x | y), S0(y | x)"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Class != attack.PTime {
		t.Fatalf("q0 classified %v, want P", p.Class)
	}
	ix := match.NewIndex(workload.Q0Instance(rand.New(rand.NewSource(1)), 2000, 2))
	free := []query.Var{"x"}
	request := func() {
		if _, err := p.CertainAnswersIndexedCtx(context.Background(), free, ix, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	live := func() int64 {
		// Two cycles: sync.Pool contents survive the first one.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	request() // builds the index and the columnar view
	before := live()
	const requests = 3
	for i := 0; i < requests; i++ {
		request()
	}
	// Retaining each candidate's state costs about 12 MB a request at
	// this size; the bound leaves room for GC noise only.
	grown := live() - before
	runtime.KeepAlive(ix) // the view must outlive the measurement
	if grown > 2<<20 {
		t.Fatalf("retained heap grew %.1f MB over %d requests, want < 2 MB", float64(grown)/(1<<20), requests)
	}
}

func TestPoolSize(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, jobs, want int
	}{
		{0, 1000, maxprocs},
		{-3, 1000, maxprocs},
		{8, 3, 3},
		{2, 100, 2},
		{1, 100, 1},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := poolSize(c.requested, c.jobs); got != c.want {
			t.Errorf("poolSize(%d, %d) = %d, want %d", c.requested, c.jobs, got, c.want)
		}
	}
}

// TestEnumerateCandidatesDedups: far more matches than distinct
// candidates — each of 500 blocks projects onto one of eight values —
// still yields each candidate once, in the answer order, and the
// candidate checks keep exactly the certain ones.
func TestEnumerateCandidatesDedups(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "R(k%d | m%d)\n", i, i%7)
	}
	for j := 0; j < 7; j++ {
		fmt.Fprintf(&b, "S(m%d | z%d)\n", j, 6-j)
	}
	fmt.Fprintf(&b, "S(m0 | z9)\n") // the m0 block is inconsistent: z6 is no answer
	d := factsDB(t, q, b.String())
	free := []query.Var{"z"}
	cands, err := p.EnumerateCandidates(match.NewIndex(d), free, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := query.Answers{{"z0"}, {"z1"}, {"z2"}, {"z3"}, {"z4"}, {"z5"}, {"z6"}, {"z9"}}
	if !slices.EqualFunc(cands, want, slices.Equal) {
		t.Fatalf("candidates %v, want %v", cands, want)
	}
	got, err := p.CertainAnswersIndexedCtx(context.Background(), free, match.NewIndex(d), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := want[:6]; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("answers %v, want %v", got, want)
	}
}
