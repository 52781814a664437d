package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

func factsDB(t *testing.T, q query.Query, lines string) *db.DB {
	t.Helper()
	d, err := db.ParseFacts(q.Schema(), lines)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// evalCertain, evalAnswers and evalCount compile q and evaluate it
// once over a fresh index of d: the one-shot shape most tests here
// share.
func evalCertain(q query.Query, d *db.DB, opts Options) (Result, error) {
	p, err := Compile(q)
	if err != nil {
		return Result{}, err
	}
	return p.CertainIndexedCtx(context.Background(), match.NewIndex(d), opts)
}

func evalAnswers(q query.Query, free []query.Var, d *db.DB, opts Options) (query.Answers, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.CertainAnswersIndexedCtx(context.Background(), free, match.NewIndex(d), opts)
}

func evalCount(ctx context.Context, q query.Query, d *db.DB, opts Options) (CountResult, error) {
	p, err := Compile(q)
	if err != nil {
		return CountResult{}, err
	}
	return p.CountIndexedCtx(ctx, match.NewIndex(d), opts)
}

// classifyText parses and classifies a query in the textual syntax.
func classifyText(s string) (Classification, error) {
	q, err := query.Parse(s)
	if err != nil {
		return Classification{}, err
	}
	return Classify(q)
}

func TestClassifyString(t *testing.T) {
	cases := []struct {
		q    string
		want Class
	}{
		{"R(x | y), S(y | z)", FO},
		{"R0(x | y), S0(y | x)", PTime},
		{"R(x | y), S(u | y)", CoNPComplete},
	}
	for _, c := range cases {
		got, err := classifyText(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != c.want {
			t.Errorf("classifyText(%q) = %v, want %v", c.q, got.Class, c.want)
		}
	}
	if _, err := classifyText("R(x | y), R(y | z)"); err == nil {
		t.Error("self-join should be rejected")
	}
	if _, err := classifyText("R(("); err == nil {
		t.Error("syntax error should be reported")
	}
}

func TestCertainAutoDispatch(t *testing.T) {
	cases := []struct {
		q      string
		engine Engine
	}{
		{"R(x | y), S(y | z)", EngineFO},
		{"R0(x | y), S0(y | x)", EnginePTime},
		{"R(x | y), S(u | y)", EngineCoNP},
	}
	for _, c := range cases {
		q := query.MustParse(c.q)
		d := workload.RandomDB(rand.New(rand.NewSource(1)), q, workload.DefaultDBParams())
		res, err := evalCertain(q, d, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if res.Engine != c.engine {
			t.Errorf("%s dispatched to %v, want %v", c.q, res.Engine, c.engine)
		}
	}
}

func TestCertainForcedEngines(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<12 {
			continue
		}
		want, err := naive.Certain(q, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []Engine{EngineFO, EnginePTime, EngineCoNP} {
			res, err := evalCertain(q, d, Options{Engine: e})
			if err != nil {
				t.Fatalf("engine %v: %v", e, err)
			}
			if res.Certain != want {
				t.Errorf("engine %v disagrees with oracle on trial %d", e, trial)
			}
		}
	}
	// Forcing FO on a cyclic query errors.
	if _, err := evalCertain(workload.Q0(), db.New(), Options{Engine: EngineFO}); err == nil {
		t.Error("FO engine must reject cyclic attack graphs")
	}
	// Forcing PTime on a coNP query errors.
	if _, err := evalCertain(workload.NonKeyJoinQuery(), db.New(), Options{Engine: EnginePTime}); err == nil {
		t.Error("PTime engine must reject strong cycles")
	}
}

func TestParseEngine(t *testing.T) {
	for name, want := range map[string]Engine{
		"": EngineAuto, "auto": EngineAuto, "fo": EngineFO,
		"ptime": EnginePTime, "conp": EngineCoNP,
	} {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	// The repair-enumeration oracle is not an engine a caller can pick.
	for _, name := range []string{"zzz", "naive"} {
		if _, err := ParseEngine(name); err == nil {
			t.Errorf("engine %q accepted", name)
		}
	}
	if EngineCoNP.String() != "conp" || Engine(99).String() == "" {
		t.Error("Engine.String wrong")
	}
}

func TestFalsifyingRepairRoundTrip(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := factsDB(t, q, `
		R(a | b)
		R(a | dead)
		S(b | c)
	`)
	repair, found, err := FalsifyingRepair(q, d)
	if err != nil || !found {
		t.Fatalf("expected falsifying repair: %v %v", found, err)
	}
	if match.Satisfies(q, db.FromFacts(repair...)) {
		t.Error("repair satisfies q")
	}
	// Certain instance: no falsifier.
	d2 := factsDB(t, q, "R(a | b)\nS(b | c)")
	if _, found, _ := FalsifyingRepair(q, d2); found {
		t.Error("no falsifier should exist")
	}
}

func TestCertainAnswers(t *testing.T) {
	q := query.MustParse("Product(pid | sid), Supplier(sid | 'DE')")
	d := factsDB(t, q, `
		Product(p1 | acme)
		Product(p2 | globex)
		Product(p2 | initech)
		Supplier(acme | DE)
		Supplier(globex | DE)
		Supplier(initech | US)
	`)
	answers, err := evalAnswers(q, []query.Var{"pid"}, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || answers[0][0] != "p1" {
		t.Errorf("answers = %v, want [pid=p1]", answers)
	}
	// Unknown free variable errors.
	if _, err := evalAnswers(q, []query.Var{"nope"}, d, Options{}); err == nil {
		t.Error("unknown free variable accepted")
	}
	// A repeated free variable errors: a row has one column per name.
	var fv *FreeVarError
	if _, err := evalAnswers(q, []query.Var{"pid", "sid", "pid"}, d, Options{}); !errors.As(err, &fv) || !fv.Repeated || fv.Var != "pid" || fv.Error() != "free variable pid is listed twice" {
		t.Errorf("repeated free variable: err = %v, want a repeated *FreeVarError for pid", err)
	}
}

// TestCertainAnswersAgainstOracle: every reported certain answer's
// instantiation is certain per the oracle, and no candidate is missed.
func TestCertainAnswersAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := query.MustParse("R(x | y), S(y | z)")
	for trial := 0; trial < 60; trial++ {
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		if d.NumRepairs() > 1<<12 {
			continue
		}
		answers, err := evalAnswers(q, []query.Var{"x"}, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := map[query.Const]bool{}
		for _, a := range answers {
			got[a[0]] = true
		}
		// Recompute by brute force over candidate x values.
		cands := map[query.Const]bool{}
		for _, m := range match.AllMatches(q, d) {
			cands[m["x"]] = true
		}
		for c := range cands {
			want, err := naive.Certain(q.Substitute(query.Valuation{"x": c}), d)
			if err != nil {
				t.Fatal(err)
			}
			if want != got[c] {
				t.Fatalf("answer x=%s: core=%v oracle=%v", c, got[c], want)
			}
		}
	}
}

// TestSignatureMismatchTypedError: every library entry point refuses a
// database that stores a relation of the query under another signature
// with a *SignatureError naming both signatures — under every engine and
// through the context entry points — instead of panicking inside an
// engine.
func TestSignatureMismatchTypedError(t *testing.T) {
	d, err := db.ParseFacts(nil, "R(a | b)\nS(b | c)\n")
	if err != nil {
		t.Fatal(err)
	}
	const wantText = "relation R: stored signature [arity 2, key 1, mode i] differs from the query's [arity 3, key 1, mode i]"
	check := func(name string, err error) {
		t.Helper()
		var se *SignatureError
		if !errors.As(err, &se) || err.Error() != wantText {
			t.Errorf("%s: err = %v, want *SignatureError %q", name, err, wantText)
		}
	}
	ctx := context.Background()
	for _, qs := range []string{"R(x | y, z)", "R(x | y, z), S(y | w)"} {
		q := query.MustParse(qs)
		for _, e := range []Engine{EngineAuto, EngineFO, EnginePTime, EngineCoNP} {
			_, err := evalCertain(q, d, Options{Engine: e})
			check(fmt.Sprintf("evalCertain(%s, %v)", qs, e), err)
		}
		_, err := evalAnswers(q, []query.Var{"x"}, d, Options{})
		check("CertainAnswersIndexedCtx", err)
		_, err = evalCount(ctx, q, d, Options{})
		check("CountIndexedCtx", err)
		_, _, err = FalsifyingRepair(q, d)
		check("FalsifyingRepair", err)
	}
	// A relation the database does not hold constrains nothing.
	if _, err := evalCertain(query.MustParse("T(x | y, z)"), d, Options{}); err != nil {
		t.Errorf("absent relation: %v", err)
	}
}
