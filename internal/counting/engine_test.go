package counting

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/faultinject"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/trace"
	"cqa/internal/workload"
)

// hubInstance builds one giant constraint component for R(x|y), S(y|z):
// n R-blocks of two facts (one pointing at the shared hub key, one
// dead) all joined through a single two-fact S-block, so the component
// space is 2^(n+1) while the match count stays linear (2n). Exactly two
// assignments falsify q: all R-blocks dead, either S fact.
func hubInstance(t testing.TB, n int) (query.Query, *db.DB) {
	t.Helper()
	q := query.MustParse("R(x | y), S(y | z)")
	d := db.New()
	rRel, sRel := q.Atoms[0].Rel, q.Atoms[1].Rel
	d.Add(db.Fact{Rel: sRel, Args: []query.Const{"hub", "z0"}})
	d.Add(db.Fact{Rel: sRel, Args: []query.Const{"hub", "z1"}})
	for i := 0; i < n; i++ {
		x := query.Const(fmt.Sprintf("x%d", i))
		d.Add(db.Fact{Rel: rRel, Args: []query.Const{x, "hub"}})
		d.Add(db.Fact{Rel: rRel, Args: []query.Const{x, query.Const(fmt.Sprintf("dead%d", i))}})
	}
	return q, d
}

func TestCountBudgetExceeded(t *testing.T) {
	q, d := hubInstance(t, 12)
	chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: 3})
	_, err := Count(q, match.NewIndex(d), chk, Options{})
	if !errors.Is(err, evalctx.ErrBudgetExceeded) {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
}

// TestCountBudgetDegrades: a component whose exact space fits the
// component limit but not the remaining step budget degrades to
// sampling rather than tripping the budget mid-enumeration.
func TestCountBudgetDegrades(t *testing.T) {
	q, d := hubInstance(t, 12) // space 2^13, well under the limit
	chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: 2000})
	res, err := Count(q, match.NewIndex(d), chk, Options{Samples: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.Sampled != 1 {
		t.Errorf("tight budget should sample: exact=%v sampled=%d", res.Exact, res.Sampled)
	}
}

// TestCountExactRefusalNamesBound: under Exact, a component refused for
// the step budget and one refused for the component limit are both
// ErrComponentTooLarge, and each message names the bound that failed.
func TestCountExactRefusalNamesBound(t *testing.T) {
	q, d := hubInstance(t, 12) // space 2^13, well under the limit
	chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: 2000})
	_, err := Count(q, match.NewIndex(d), chk, Options{Exact: true})
	if !errors.Is(err, ErrComponentTooLarge) {
		t.Fatalf("want ErrComponentTooLarge, got %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "space 8192 over the") ||
		!strings.Contains(msg, "steps left in the budget") || strings.Contains(msg, "limit") {
		t.Errorf("budget refusal names the wrong bound: %s", msg)
	}
	q, d = hubInstance(t, 64)
	_, err = Count(q, match.NewIndex(d), nil, Options{Exact: true})
	if !errors.Is(err, ErrComponentTooLarge) {
		t.Fatalf("want ErrComponentTooLarge, got %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "over limit 4194304") || strings.Contains(msg, "budget") {
		t.Errorf("limit refusal names the wrong bound: %s", msg)
	}
}

func TestCountCancelled(t *testing.T) {
	q, d := hubInstance(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	chk := evalctx.New(ctx, evalctx.Limits{})
	_, err := Count(q, match.NewIndex(d), chk, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCountComponentFault(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("boom")
	faultinject.Set("counting.component", func(int) error { return boom })
	q, d := hubInstance(t, 4)
	_, err := Count(q, match.NewIndex(d), nil, Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if faultinject.Calls("counting.component") == 0 {
		t.Error("hook never fired")
	}
}

// TestComponentSpaceOverflow is the regression for the historical
// post-multiplication bound check, which could wrap int64 before the
// comparison under a pathological block and a caller-raised limit.
func TestComponentSpaceOverflow(t *testing.T) {
	huge := 1 << 31
	if space, fits := componentSpace([]int{huge, huge, huge}, math.MaxInt64); fits {
		t.Fatalf("2^93 space reported as fitting (space=%d)", space)
	}
	// Exactly at the limit still fits…
	if space, fits := componentSpace([]int{2048, 2048}, 1<<22); !fits || space != 1<<22 {
		t.Fatalf("2^22 space at a 2^22 limit: space=%d fits=%v", space, fits)
	}
	// …one past it does not.
	if _, fits := componentSpace([]int{2048, 2049}, 1<<22); fits {
		t.Fatal("2048*2049 space reported under a 2^22 limit")
	}
	if space, fits := componentSpace(nil, 1); !fits || space != 1 {
		t.Fatalf("empty component: space=%d fits=%v", space, fits)
	}
}

// TestCountPathologicalBlock: a component whose space (2^65) overflows
// int64 outright must degrade (or refuse under Exact), never wrap into
// a bogus in-bounds enumeration.
func TestCountPathologicalBlock(t *testing.T) {
	q, d := hubInstance(t, 64)
	if _, err := SatisfyingRepairs(q, d); !errors.Is(err, ErrComponentTooLarge) {
		t.Fatalf("exact mode on a 2^65 component: %v", err)
	}
	res, err := Count(q, match.NewIndex(d), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 65)
	if res.Total.Cmp(want) != 0 {
		t.Errorf("total = %v, want 2^65", res.Total)
	}
	// Only 2 of 2^65 assignments falsify: the estimate must sit at the
	// top of the unit interval.
	if res.Exact || res.Fraction < 0.99 || res.Fraction > 1 {
		t.Errorf("exact=%v fraction=%v", res.Exact, res.Fraction)
	}
}

// TestCountSampledAccuracy: on a component small enough to count
// exactly, a forced sampling run must land within its own reported
// confidence interval of the truth (deterministic seed, so not flaky).
func TestCountSampledAccuracy(t *testing.T) {
	q, d := hubInstance(t, 10)
	exact, err := SatisfyingRepairs(q, d)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Count(q, match.NewIndex(d), nil, Options{ComponentLimit: 16, Samples: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if est.Exact || est.Sampled != 1 {
		t.Fatalf("forced sampling: exact=%v sampled=%d", est.Exact, est.Sampled)
	}
	if diff := math.Abs(est.Fraction - exact.Fraction); diff > est.Confidence+1e-9 {
		t.Errorf("estimate %v ± %v vs exact %v (off by %v)",
			est.Fraction, est.Confidence, exact.Fraction, diff)
	}
	// Same seed, same estimate: the anytime path is reproducible.
	again, err := Count(q, match.NewIndex(d), nil, Options{ComponentLimit: 16, Samples: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if again.Fraction != est.Fraction || again.Confidence != est.Confidence {
		t.Errorf("rerun diverged: %v±%v vs %v±%v", again.Fraction, again.Confidence, est.Fraction, est.Confidence)
	}
	// A different seed may move the point estimate but stays honest.
	other, err := Count(q, match.NewIndex(d), nil, Options{ComponentLimit: 16, Samples: 4096, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(other.Fraction - exact.Fraction); diff > other.Confidence+1e-9 {
		t.Errorf("seed 99 estimate %v ± %v vs exact %v", other.Fraction, other.Confidence, exact.Fraction)
	}
}

// TestCountAlwaysSatisfiedComponent: a constraint all of whose blocks
// are single-fact is kept by every repair, so the count is exactly
// Total no matter how big the rest of the component space is.
func TestCountAlwaysSatisfiedComponent(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := db.New()
	rRel, sRel := q.Atoms[0].Rel, q.Atoms[1].Rel
	d.Add(db.Fact{Rel: rRel, Args: []query.Const{"a", "b"}})
	d.Add(db.Fact{Rel: sRel, Args: []query.Const{"b", "c"}})
	// Noise blocks that never match: factors on both counts.
	d.Add(db.Fact{Rel: rRel, Args: []query.Const{"a2", "nob1"}})
	d.Add(db.Fact{Rel: rRel, Args: []query.Const{"a2", "nob2"}})
	res, err := SatisfyingRepairs(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfying.Cmp(res.Total) != 0 || res.Total.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("forced constraint: %v/%v", res.Satisfying, res.Total)
	}
	if res.Fraction != 1 {
		t.Errorf("fraction = %v", res.Fraction)
	}
}

func TestCountTraceCounters(t *testing.T) {
	tr := trace.New()
	chk := evalctx.NewTraced(context.Background(), evalctx.Limits{}, tr)
	q, d := hubInstance(t, 8)
	if _, err := Count(q, match.NewIndex(d), chk, Options{}); err != nil {
		t.Fatal(err)
	}
	var st *trace.StageStats
	for _, s := range tr.Breakdown() {
		if s.Stage == "count" {
			cp := s
			st = &cp
			break
		}
	}
	if st == nil {
		t.Fatal("no count stage span recorded")
	}
	if st.Spans == 0 || st.Counters["components"] != 1 || st.Counters["matches"] == 0 {
		t.Errorf("count stage stats: %+v", st)
	}
}

// --- Metamorphic family -------------------------------------------------

// foreignRel is a relation no generated query mentions.
var foreignRel = query.MustParse("ZForeign(k | v)").Atoms[0].Rel

// randomCase draws a small query/instance pair the exact counter
// handles comfortably.
func randomCase(rng *rand.Rand) (query.Query, *db.DB) {
	p := workload.DefaultQueryParams()
	p.Atoms = 1 + rng.Intn(3)
	q := workload.RandomQuery(rng, p)
	d := workload.RandomDB(rng, q, workload.DefaultDBParams())
	return q, d
}

// rebuild copies facts into a fresh database in the given order.
func rebuild(facts []db.Fact) *db.DB {
	d := db.New()
	for _, f := range facts {
		d.Add(f)
	}
	return d
}

// TestCountForeignRelationInvariant: facts of a relation q never
// mentions multiply Satisfying and Total by the same block factor and
// leave Fraction untouched.
func TestCountForeignRelationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	trials := 0
	for trials < 40 {
		q, d := randomCase(rng)
		res0, err := SatisfyingRepairs(q, d)
		if err != nil {
			continue
		}
		trials++
		facts := append([]db.Fact(nil), d.Facts()...)
		for v := 0; v < 3; v++ {
			facts = append(facts, db.Fact{Rel: foreignRel,
				Args: []query.Const{"k0", query.Const(fmt.Sprintf("v%d", v))}})
		}
		res1, err := SatisfyingRepairs(q, rebuild(facts))
		if err != nil {
			t.Fatal(err)
		}
		k := big.NewInt(3)
		if res1.Total.Cmp(new(big.Int).Mul(res0.Total, k)) != 0 {
			t.Fatalf("total %v != 3 * %v\nq=%s", res1.Total, res0.Total, q)
		}
		if res1.Satisfying.Cmp(new(big.Int).Mul(res0.Satisfying, k)) != 0 {
			t.Fatalf("sat %v != 3 * %v\nq=%s", res1.Satisfying, res0.Satisfying, q)
		}
		if math.Abs(res1.Fraction-res0.Fraction) > 1e-12 {
			t.Fatalf("fraction moved: %v vs %v\nq=%s", res1.Fraction, res0.Fraction, q)
		}
	}
}

// TestCountDuplicateForeignBlockScales: doubling a foreign block's fact
// count doubles both counts.
func TestCountDuplicateForeignBlockScales(t *testing.T) {
	rng := rand.New(rand.NewSource(709))
	trials := 0
	for trials < 40 {
		q, d := randomCase(rng)
		base := append([]db.Fact(nil), d.Facts()...)
		small := append(append([]db.Fact(nil), base...),
			db.Fact{Rel: foreignRel, Args: []query.Const{"k0", "v0"}},
			db.Fact{Rel: foreignRel, Args: []query.Const{"k0", "v1"}})
		res1, err := SatisfyingRepairs(q, rebuild(small))
		if err != nil {
			continue
		}
		trials++
		big2 := append(append([]db.Fact(nil), small...),
			db.Fact{Rel: foreignRel, Args: []query.Const{"k0", "v2"}},
			db.Fact{Rel: foreignRel, Args: []query.Const{"k0", "v3"}})
		res2, err := SatisfyingRepairs(q, rebuild(big2))
		if err != nil {
			t.Fatal(err)
		}
		two := big.NewInt(2)
		if res2.Total.Cmp(new(big.Int).Mul(res1.Total, two)) != 0 {
			t.Fatalf("total %v != 2 * %v\nq=%s", res2.Total, res1.Total, q)
		}
		if res2.Satisfying.Cmp(new(big.Int).Mul(res1.Satisfying, two)) != 0 {
			t.Fatalf("sat %v != 2 * %v\nq=%s", res2.Satisfying, res1.Satisfying, q)
		}
	}
}

// TestCountInsertionOrderInvariant: the counts are a function of the
// fact set, not the insertion order the index happened to see.
func TestCountInsertionOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(719))
	trials := 0
	for trials < 40 {
		q, d := randomCase(rng)
		res0, err := SatisfyingRepairs(q, d)
		if err != nil {
			continue
		}
		trials++
		facts := append([]db.Fact(nil), d.Facts()...)
		rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
		res1, err := SatisfyingRepairs(q, rebuild(facts))
		if err != nil {
			t.Fatal(err)
		}
		if res1.Total.Cmp(res0.Total) != 0 || res1.Satisfying.Cmp(res0.Satisfying) != 0 {
			t.Fatalf("order-dependent counts: %v/%v vs %v/%v\nq=%s",
				res1.Satisfying, res1.Total, res0.Satisfying, res0.Total, q)
		}
		if res1.Components != res0.Components {
			t.Fatalf("order-dependent components: %d vs %d\nq=%s", res1.Components, res0.Components, q)
		}
	}
}
