package match

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/workload"
)

// purifyRounds is the round-based reading of Lemma 1, kept as the
// reference for Purify: each round enumerates every embedding of q in
// the current database, drops each block holding a fact no embedding
// uses, and rebuilds the database from the surviving blocks, until a
// round drops nothing. It reports the rounds it ran.
func purifyRounds(q query.Query, d *db.DB) (*db.DB, int) {
	cur := keepBlocks(d, func(b db.Block) bool { return q.HasRel(b.Facts[0].Rel.Name) })
	for rounds := 1; ; rounds++ {
		relevant := make(map[*db.Fact]bool)
		oracleWalk(NewIndex(cur), q, query.Valuation{}, func(_ query.Valuation, hits []hit) bool {
			for _, h := range hits {
				relevant[h.fact()] = true
			}
			return true
		})
		dropped := false
		next := keepBlocks(cur, func(b db.Block) bool {
			for s := range b.Facts {
				if !relevant[&b.Facts[s]] {
					dropped = true
					return false
				}
			}
			return true
		})
		if !dropped {
			return cur, rounds
		}
		cur = next
	}
}

// keepBlocks returns a database holding the blocks of d that keep
// selects, in d's block order.
func keepBlocks(d *db.DB, keep func(db.Block) bool) *db.DB {
	out := db.New()
	for _, b := range d.Blocks() {
		if keep(b) {
			for _, f := range b.Facts {
				out.Add(f)
			}
		}
	}
	return out
}

// relevant reports whether f is relevant for q in d (Section 3): some
// valuation theta has f ∈ theta(q) ⊆ d. The fact is unified with the
// one atom of its relation first, by self-join-freeness.
func relevant(q query.Query, d *db.DB, f db.Fact) bool {
	atom, ok := q.AtomWithRel(f.Rel.Name)
	val := query.Valuation{}
	if !ok {
		return false
	}
	if _, ok := oracleUnify(atom, f, val); !ok {
		return false
	}
	return NewIndex(d).Exists(q.Remove(atom), val)
}

// TestPurifyMatchesRoundOracle: the one-pass fixpoint over the
// constraint form keeps exactly the facts the round-based oracle keeps,
// in the same order, on seeded random instances — with noise blocks of
// a relation outside q, and with block-level cascades that take the
// oracle several rounds.
func TestPurifyMatchesRoundOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	outside := schema.Relation{Name: "Zout", Arity: 2, KeyLen: 1}
	queries := []query.Query{
		query.MustParse("R(x | y), S(y | z), T(z | w)"),
		query.MustParse("R(x | y), S(u | y)"),
		workload.Q0(),
	}
	instances, cascades, maxRounds := 0, 0, 0
	for trial := 0; trial < 600; trial++ {
		var q query.Query
		if trial%4 == 3 {
			p := workload.DefaultQueryParams()
			p.Atoms = 1 + rng.Intn(4)
			q = workload.RandomQuery(rng, p)
		} else {
			q = queries[trial%3]
		}
		p := workload.DefaultDBParams()
		p.SeedMatches = 1 + rng.Intn(6)
		p.Domain = 2 + rng.Intn(3)
		p.ExtraPerBlock = 0.4 + 0.5*rng.Float64()
		p.Noise = rng.Intn(6)
		d := workload.RandomDB(rng, q, p)
		for i := rng.Intn(4); i > 0; i-- {
			d.Add(db.NewFact(outside, query.Const(fmt.Sprint("k", rng.Intn(3))), query.Const(fmt.Sprint("v", i))))
		}
		want, rounds := purifyRounds(q, d)
		got, err := Purify(q, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.String(), want.String(); g != w {
			t.Fatalf("q = %s\ndb:\n%s\nPurify kept:\n%s\noracle kept:\n%s", q, d, g, w)
		}
		instances++
		if rounds > 2 {
			cascades++
		}
		maxRounds = max(maxRounds, rounds)
	}
	t.Logf("%d instances, %d needing more than two rounds, at most %d rounds", instances, cascades, maxRounds)
	if cascades < 20 {
		t.Errorf("only %d instances cascade past two rounds; the corpus no longer exercises the fixpoint", cascades)
	}
}

// TestPurifiedWitnesses pins the fixpoint on a three-block cascade:
// the witnesses in drop order, and the purified form over the one
// chain that survives.
func TestPurifiedWitnesses(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z), T(z | w)")
	// R(a | zz) joins nothing, so block R(a | *) goes with it as its
	// witness; then S(b | c) and T(c | d) lose their only constraint in
	// turn. The x2 chain survives, and block S(q | *) touches no
	// embedding at all, so it is no constraint's block and has no
	// witness.
	d := factsDB(t, `
		R(a | b)
		R(a | zz)
		S(b | c)
		T(c | d)
		R(x2 | y2)
		S(y2 | z2)
		T(z2 | w2)
		S(q | r)
	`)
	cs, err := NewIndex(d).Constraints(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	pc, witnesses := cs.Purified()
	var got []string
	for _, w := range witnesses {
		got = append(got, w.String())
	}
	if want := fmt.Sprint([]string{"R(a | zz)", "S(b | c)", "T(c | d)"}); fmt.Sprint(got) != want {
		t.Errorf("witnesses %v, want %s", got, want)
	}
	if len(pc.Blocks) != 3 || len(pc.Cons) != 1 || pc.Embeddings != 1 {
		t.Errorf("purified form: %d blocks, %d constraints, %d embeddings; want 3, 1, 1", len(pc.Blocks), len(pc.Cons), pc.Embeddings)
	}
	for _, b := range pc.Blocks {
		if b.Facts[0].Args[0] != "x2" && b.Facts[0].Args[0] != "y2" && b.Facts[0].Args[0] != "z2" {
			t.Errorf("block %s survived purification", b.ID)
		}
	}
}

// TestPurifyCancelled: purification polls the checker inside the one
// join, so a tripped checker returns its error and no database.
func TestPurifyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	chk := evalctx.New(ctx, evalctx.Limits{})
	chk.Check()
	d := factsDB(t, "R(a | b)\nS(b | c)\n")
	pd, err := Purify(query.MustParse("R(x | y), S(y | z)"), d, chk)
	if !errors.Is(err, context.Canceled) || pd != nil {
		t.Errorf("cancelled purification: %v, %v", pd, err)
	}
}

// TestGPurifyCancelled: gpurification polls the checker in every join,
// so a budget that runs out in its first purification or in the
// grelevance walks after it returns the budget error and no database.
// ExistsChecked surfaces a tripped checker the same way.
func TestGPurifyCancelled(t *testing.T) {
	q := workload.Q0()
	d := workload.Q0Instance(rand.New(rand.NewSource(9)), 100, 2)
	const unlimited = 1 << 40
	chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: unlimited, Interval: 1})
	want, err := GPurify(q, d, chk)
	if err != nil {
		t.Fatal(err)
	}
	left, _ := chk.Remaining()
	used := unlimited - left
	for _, budget := range []int64{10, used - 10} {
		chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: budget, Interval: 1})
		if gd, err := GPurify(q, d, chk); !errors.Is(err, evalctx.ErrBudgetExceeded) || gd != nil {
			t.Errorf("budget %d of %d: %v, %v; want the budget error and no database", budget, used, gd, err)
		}
	}
	if got, _ := GPurify(q, d, nil); got.String() != want.String() {
		t.Errorf("unchecked gpurification differs from the checked one")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tripped := evalctx.New(ctx, evalctx.Limits{})
	tripped.Check()
	if ok, err := NewIndex(d).ExistsChecked(q, query.Valuation{}, tripped); ok || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ExistsChecked: %v, %v", ok, err)
	}
}
