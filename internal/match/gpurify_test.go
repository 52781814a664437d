package match

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cqa/internal/db"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/workload"
)

// embeddings returns theta(q) for every embedding theta of q in d, in
// the oracle join's order.
func embeddings(q query.Query, d *db.DB) [][]db.Fact {
	var out [][]db.Fact
	oracleWalk(NewIndex(d), q, query.Valuation{}, func(_ query.Valuation, hits []hit) bool {
		img := make([]db.Fact, len(hits))
		for i, h := range hits {
			img[i] = *hitFact(d, q.Atoms[i], h)
		}
		out = append(out, img)
		return true
	})
	return out
}

// grelevantAmong reports whether the consistent fact set s is
// grelevant (Definition 6) given the embedding images of a database:
// some image meets s and is consistent, alone and together with s.
func grelevantAmong(images [][]db.Fact, s []db.Fact) bool {
next:
	for _, img := range images {
		meets := false
		for _, f := range img {
			for _, g := range slices.Concat(img, s) {
				if f.KeyEqual(g) && !f.Equal(g) {
					continue next
				}
			}
			meets = meets || slices.ContainsFunc(s, f.Equal)
		}
		if meets {
			return true
		}
	}
	return false
}

// gRelevant reports whether the consistent fact set s is grelevant for
// q in d, straight from Definition 6: s extends to a repair of d in
// which some fact of s is relevant, that is, some embedding image meets
// s and is consistent with it.
func gRelevant(q query.Query, d *db.DB, s []db.Fact) bool {
	return grelevantAmong(embeddings(q, d), s)
}

// typed returns d typed relative to q, the convention of the paper's
// proofs (Lemma 12): the constant c at a position whose term in q is the
// variable x becomes "x:c", so distinct variables draw on disjoint
// pools. Constant positions, and facts of relations q does not use, are
// copied unchanged. The tagging is injective per position, so blocks,
// embeddings and the block order carry over.
func typed(q query.Query, d *db.DB) *db.DB {
	out := db.New()
	for _, f := range d.Facts() {
		args := slices.Clone(f.Args)
		if a, ok := q.AtomWithRel(f.Rel.Name); ok {
			for i, t := range a.Args {
				if t.IsVar() {
					args[i] = query.Const(string(t.Var()) + ":" + string(args[i]))
				}
			}
		}
		out.Add(db.Fact{Rel: f.Rel, Args: args})
	}
	return out
}

// oracleGBlocks groups the simple-key mode-i blocks of d by key constant,
// in key order: Definition 7, for a d typed relative to the query.
func oracleGBlocks(d *db.DB) [][]db.Block {
	byKey := make(map[query.Const][]db.Block)
	for _, b := range d.Blocks() {
		rel := b.Facts[0].Rel
		if rel.Mode == schema.ModeC || !rel.SimpleKey() {
			continue
		}
		byKey[b.Facts[0].Args[0]] = append(byKey[b.Facts[0].Args[0]], b)
	}
	keys := make([]query.Const, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([][]db.Block, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// gpurifyRounds is the round-based reading of Lemma 17, kept as the
// reference for GPurify on a d typed relative to q: each round purifies
// the current database (by purifyRounds), enumerates its embeddings,
// and removes every gblock with a repair that no embedding image makes
// grelevant, until a round removes nothing. It reports the rounds it
// ran.
func gpurifyRounds(q query.Query, d *db.DB) (*db.DB, int) {
	cur, _ := purifyRounds(q, d)
	for rounds := 1; ; rounds++ {
		images := embeddings(q, cur)
		removed := make(map[*db.Fact]bool) // removed blocks, by first fact
		for _, g := range oracleGBlocks(cur) {
			if !allRepairsGRelevant(images, g) {
				for _, b := range g {
					removed[&b.Facts[0]] = true
				}
			}
		}
		if len(removed) == 0 {
			return cur, rounds
		}
		cur, _ = purifyRounds(q, keepBlocks(cur, func(b db.Block) bool { return !removed[&b.Facts[0]] }))
	}
}

// allRepairsGRelevant reports whether every repair of the gblock — one
// fact per block — is grelevant given the embedding images.
func allRepairsGRelevant(images [][]db.Fact, g []db.Block) bool {
	var rec func(s []db.Fact) bool
	rec = func(s []db.Fact) bool {
		if len(s) == len(g) {
			return grelevantAmong(images, s)
		}
		for _, f := range g[len(s)].Facts {
			if !rec(append(s, f)) {
				return false
			}
		}
		return true
	}
	return rec(make([]db.Fact, 0, len(g)))
}

// sharedQ0Instance draws the given number of facts of q0's relations
// R0 and S0 over one pool of nodes, so R0 and S0 blocks share key
// constants: the instance is not typed, and an R0 block (key term x)
// and an S0 block (key term y) with one key constant are in different
// gblocks.
func sharedQ0Instance(rng *rand.Rand, nodes, facts int) *db.DB {
	q := workload.Q0()
	d := db.New()
	for i := 0; i < facts; i++ {
		u, v := query.Const(fmt.Sprint("n", rng.Intn(nodes))), query.Const(fmt.Sprint("n", rng.Intn(nodes)))
		d.Add(db.NewFact(q.Atoms[rng.Intn(2)].Rel, u, v))
	}
	return d
}

// TestGPurifyMatchesRoundOracle: gpurification on the constraint form
// keeps exactly the facts the round-based oracle keeps, in the same
// order, on seeded instances of q0 (over disjoint and over shared node
// pools), of Example 11's query, of random simple-key queries, and of
// cascadeQuery, each generated one also with its variables' pools
// merged. GPurify runs on the instance as it is; the oracle runs on its
// typed copy, and so does the comparison. On each instance,
// gpurification continuing from Purify's form must also build the form
// GPurify builds by joining over the purified copy.
func TestGPurifyMatchesRoundOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1501_07864))
	ex11 := query.MustParse("R(x | y), S(x | y)")
	cascade := query.MustParse(cascadeQuery)
	instances, dropping := 0, 0
	for trial := 0; trial < 1600; trial++ {
		var q query.Query
		var d *db.DB
		p := workload.DefaultDBParams()
		p.SeedMatches = 1 + rng.Intn(6)
		p.Domain = 2 + rng.Intn(3)
		p.ExtraPerBlock = 0.4 + 0.6*rng.Float64()
		p.Noise = rng.Intn(4)
		switch trial % 4 {
		case 0:
			q = workload.Q0()
			if trial%8 == 0 {
				d = workload.Q0Instance(rng, 2+rng.Intn(8), 1+rng.Intn(3))
			} else {
				d = sharedQ0Instance(rng, 2+rng.Intn(5), 2+rng.Intn(8))
			}
		case 1:
			q = ex11
			d = workload.RandomDB(rng, q, p)
		case 2:
			q = cascade
			d = workload.RandomDB(rng, q, p)
		default:
			q = workload.RandomSimpleKeyQuery(rng, 1+rng.Intn(4), 3, 2+rng.Intn(3))
			d = workload.RandomDB(rng, q, p)
		}
		for _, d := range []*db.DB{d, workload.SharePools(d)} {
			want, rounds := gpurifyRounds(q, typed(q, d))
			got, err := GPurify(q, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := typed(q, got.Copy()).String(), want.String(); g != w {
				t.Fatalf("q = %s\ndb:\n%s\nGPurify kept (typed):\n%s\noracle kept:\n%s", q, d, g, w)
			}
			checkGPurifiedContinues(t, q, d)
			instances++
			if rounds > 1 {
				dropping++
			}
		}
	}
	t.Logf("%d instances, %d dropping a gblock", instances, dropping)
	if dropping < 100 {
		t.Errorf("only %d instances drop a gblock; the corpus no longer exercises gpurification", dropping)
	}
}

// checkGPurifiedContinues checks that gpurification continuing from
// PurifyForm's form, with no join of its own, builds the form that
// GPurify builds by joining q over the purified copy: the same
// constraints over the same block numbering, holding the same facts.
// The continued form's blocks are d's own blocks, not copies.
func checkGPurifiedContinues(t *testing.T, q query.Query, d *db.DB) {
	t.Helper()
	pf, err := PurifyForm(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pf.GPurified(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := GPurify(q, pf.Survivors(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != len(want.Blocks) || !slices.EqualFunc(got.Cons, want.Cons, slices.Equal) {
		t.Fatalf("q = %s\ndb:\n%s\ncontinued form: %d blocks, constraints %v\njoined form: %d blocks, constraints %v",
			q, d, len(got.Blocks), got.Cons, len(want.Blocks), want.Cons)
	}
	for b, blk := range got.Blocks {
		f := blk.Facts[0]
		own, _ := d.BlockByKey(f.Rel.Name, f.Key())
		if &own.Facts[0] != &blk.Facts[0] || !slices.EqualFunc(blk.Facts, want.Blocks[b].Facts, db.Fact.Equal) {
			t.Fatalf("q = %s\ndb:\n%s\nblock %d: continued %v (own block %v), joined %v", q, d, b, blk.Facts, own.Facts, want.Blocks[b].Facts)
		}
	}
	if g, w := got.Copy().String(), want.Copy().String(); g != w {
		t.Fatalf("q = %s\ndb:\n%s\ncontinued form keeps:\n%s\njoined form keeps:\n%s", q, d, g, w)
	}
}

// cascadeQuery is R(x | y), S(x | z), T(u | y, z, w), U(u | w): an R
// and an S fact of one x-gblock are embedded together only through a T
// fact, and a u-gblock can go while the R and S facts stay relevant
// through other T facts.
const cascadeQuery = "R(x | y), S(x | z), T(u | y, z, w), U(u | w)"

// TestGPurifyCascade pins a gpurification that needs a second round.
// Gblock c has the non-grelevant repair {T(c | 1, 3, p), U(c | q)}, so
// round one drops it; that takes the only embedding of the repair
// {R(b | 1), S(b | 3)} of gblock b, while R(b | 1) and S(b | 3) stay
// relevant through d and e, so round two drops gblock b, and
// purification then drops everything but the independent g chain.
func TestGPurifyCascade(t *testing.T) {
	q := query.MustParse(cascadeQuery)
	d := factsDB(t, `
		R(b | 1)
		R(b | 2)
		S(b | 3)
		S(b | 4)
		T(c | 1, 3, p)
		T(c | 1, 3, q)
		U(c | p)
		U(c | q)
		T(d | 1, 4, p)
		U(d | p)
		T(e | 2, 3, p)
		U(e | p)
		T(f | 2, 4, p)
		U(f | p)
		R(g | 5)
		S(g | 6)
		T(h | 5, 6, r)
		U(h | r)
	`)
	want, rounds := gpurifyRounds(q, d)
	if rounds != 3 {
		t.Errorf("the oracle ran %d rounds, want 3 (two dropping)", rounds)
	}
	got, err := GPurify(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Copy().String(), want.String(); g != w || got.NumFacts() != 4 {
		t.Errorf("GPurify kept:\n%s\noracle kept:\n%s\nwant the 4 facts of the g chain", g, w)
	}
}
