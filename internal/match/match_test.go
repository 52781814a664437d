package match

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"cqa/internal/db"
	"cqa/internal/query"
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

func TestSatisfiesBasic(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := factsDB(t, `
		R(a | b)
		S(b | c)
	`)
	if !Satisfies(q, d) {
		t.Errorf("expected %s to satisfy %s", d, q)
	}
	d2 := factsDB(t, `
		R(a | b)
		S(c | c)
	`)
	if Satisfies(q, d2) {
		t.Errorf("expected %s to falsify %s", d2, q)
	}
}

func TestMatchWithConstantsAndRepeats(t *testing.T) {
	q := query.MustParse("R(x | y, 'k'), S(x | x)")
	d := factsDB(t, `
		R(a | b, k)
		R(a | b, notk)
		S(a | a)
		S(c | a)
	`)
	ms := AllMatches(q, d)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1: %v", len(ms), ms)
	}
	if ms[0]["x"] != "a" || ms[0]["y"] != "b" {
		t.Errorf("unexpected match %v", ms[0])
	}
}

func TestAllMatchesCountsJoins(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := factsDB(t, `
		R(a | b)
		R(a2 | b)
		S(b | c)
		S(b | c2)
	`)
	ms := AllMatches(q, d)
	if len(ms) != 4 {
		t.Fatalf("got %d matches, want 4", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		seen[m.Key()] = true
	}
	if len(seen) != 4 {
		t.Errorf("matches are not distinct: %v", ms)
	}
}

func TestMatchEarlyStop(t *testing.T) {
	q := query.MustParse("R(x | y)")
	d := factsDB(t, `
		R(a | b)
		R(c | d)
	`)
	calls := 0
	NewIndex(d).Match(q, query.Valuation{}, func(query.Valuation) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("yield called %d times after requesting stop", calls)
	}
}

func TestMatchWithPartialBinding(t *testing.T) {
	q := query.MustParse("R(x | y)")
	d := factsDB(t, `
		R(a | b)
		R(c | d)
	`)
	ix := NewIndex(d)
	var got []string
	ix.Match(q, query.Valuation{"x": "c"}, func(v query.Valuation) bool {
		got = append(got, v.Key())
		return true
	})
	if len(got) != 1 || got[0] != "x=c,y=d" {
		t.Errorf("partial binding gave %v", got)
	}
}

// TestPurifyExample1 reproduces Example 1: for q = R('a', y | z) with key
// position 1, the fact R(d, b, f) is irrelevant and is purified away.
func TestPurifyExample1(t *testing.T) {
	q := query.MustParse("R('a' | y, z)")
	d := factsDB(t, `
		R(a | b, c)
		R(d | b, f)
	`)
	p, _ := Purify(q, d, nil)
	if p.Len() != 1 {
		t.Fatalf("purified db has %d facts, want 1:\n%s", p.Len(), p)
	}
	if p.Facts()[0].Args[0] != "a" {
		t.Errorf("wrong fact kept: %s", p.Facts()[0])
	}
	// The relevant-for FD of Example 1 holds on the purified relation:
	// all matches agree on z given y.
	ms := AllMatches(q, p)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
}

func TestPurifyDropsForeignRelations(t *testing.T) {
	q := query.MustParse("R(x | y)")
	d := factsDB(t, `
		R(a | b)
		Zother(a | b)
	`)
	p, _ := Purify(q, d, nil)
	if p.Len() != 1 || p.Facts()[0].Rel.Name != "R" {
		t.Errorf("purify should drop facts of relations outside q: %s", p)
	}
}

func TestRelevantFact(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := factsDB(t, `
		R(a | b)
		R(a | dead)
		S(b | c)
	`)
	rel := d.Facts()[0]
	dead := d.Facts()[1]
	if !relevant(q, d, rel) {
		t.Errorf("%s should be relevant", rel)
	}
	if relevant(q, d, dead) {
		t.Errorf("%s should be irrelevant (no joining S-fact)", dead)
	}
}

// TestGBlocksGrouping: a gblock (Definition 7) is the simple-key mode-i
// blocks whose key constants lie in the pool of one key term, so blocks
// group by (key term, key constant), across relations; mode-c blocks are
// in none. The paper's typed databases let the constant alone decide;
// these are not typed, and blocks of distinct key terms with one
// constant stay apart. Only gblocks of two or more blocks are listed:
// a one-block gblock is grelevant on any purified form, so GPurify
// never decides it.
func TestGBlocksGrouping(t *testing.T) {
	for _, tc := range []struct {
		name, q, facts string
		want           []string // each gblock's blocks as "Rel:key", sorted
	}{{
		name: "one key variable",
		q:    "R(x | y), S(x | z), T#c(w | v)",
		facts: `
			R(a | 1)
			R(a | 2)
			S(a | 3)
			R(b | 4)
			S(b | 5)
			T#c(a | 9)
		`,
		want: []string{"R:a S:a", "R:b S:b"},
	}, {
		name: "two key variables, one constant",
		q:    "R(x | y), S(u | v)",
		facts: `
			R(a | 1)
			R(a | 2)
			S(a | 3)
			S(b | 4)
		`,
		want: nil, // x and u key no other atom: every gblock is one block
	}, {
		name: "key variable and key constant",
		q:    "R(x | y), S('a' | z), T('a' | w)",
		facts: `
			R(a | 1)
			S(a | 2)
			S(a | 3)
			T(a | 4)
		`,
		want: []string{"S:a T:a"},
	}} {
		q := query.MustParse(tc.q)
		cs, err := NewIndex(factsDB(t, tc.facts)).Constraints(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, g := range cs.gblocks(q) {
			var blocks []string
			for _, b := range g {
				f := cs.Blocks[b].Facts[0]
				blocks = append(blocks, f.Rel.Name+":"+string(f.Args[0]))
			}
			sort.Strings(blocks)
			got = append(got, strings.Join(blocks, " "))
		}
		sort.Strings(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: gblocks %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestGPurifyExample11 reproduces Example 11: q = {R(x|y), S(x|y)} with
// db = {R(a,1), R(a,2), S(a,1), S(a,2)} is not gpurified; the repair
// {R(a,1), S(a,2)} of the single gblock is not grelevant, so the whole
// gblock is removed.
func TestGPurifyExample11(t *testing.T) {
	q := query.MustParse("R(x | y), S(x | y)")
	d := factsDB(t, `
		R(a | 1)
		R(a | 2)
		S(a | 1)
		S(a | 2)
	`)
	s := []db.Fact{d.Facts()[0], d.Facts()[3]} // R(a|1), S(a|2)
	if gRelevant(q, d, s) {
		t.Errorf("{R(a,1), S(a,2)} should not be grelevant")
	}
	s2 := []db.Fact{d.Facts()[0], d.Facts()[2]} // R(a|1), S(a|1)
	if !gRelevant(q, d, s2) {
		t.Errorf("{R(a,1), S(a,1)} should be grelevant")
	}
	gp, err := GPurify(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gp.NumFacts() != 0 {
		t.Errorf("gpurification should remove the whole gblock, kept:\n%s", gp.Copy())
	}
}

// TestGPurifyKeepsSupportedBlocks: when every repair of every gblock is
// grelevant, gpurification is the identity (after purification).
func TestGPurifyKeepsSupportedBlocks(t *testing.T) {
	q := query.MustParse("R(x | y), S(x | y)")
	d := factsDB(t, `
		R(a | 1)
		R(a | 2)
		S(a | 1)
		S(a | 2)
		S(a | 3)
	`)
	// Repair {R(a,1), S(a,2)} is still not grelevant; removal expected.
	gp, err := GPurify(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gp.NumFacts() != 0 {
		t.Errorf("expected removal, kept:\n%s", gp.Copy())
	}

	d2 := factsDB(t, `
		R(a | 1)
		S(a | 1)
	`)
	gp2, err := GPurify(q, d2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gp2.NumFacts() != 2 || gp2.Copy().Len() != 2 {
		t.Errorf("consistent matching gblock should survive, got:\n%s", gp2.Copy())
	}
}

// TestPurifyIsPurified: after purification every remaining fact is
// relevant (the defining property of "purified relative to q").
func TestPurifyIsPurified(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(3)
		q := workload.RandomQuery(rng, p)
		d := workload.RandomDB(rng, q, workload.DefaultDBParams())
		pd, _ := Purify(q, d, nil)
		for _, f := range pd.Facts() {
			if !relevant(q, pd, f) {
				t.Fatalf("purified db keeps irrelevant fact %s for %s\ndb:\n%s", f, q, pd)
			}
		}
	}
}

// TestPurifyBlockWithIrrelevantFactIsRemoved pins the Lemma 1 subtlety: a
// block containing an irrelevant fact must be removed wholesale, because
// a repair can select the irrelevant fact.
func TestPurifyBlockWithIrrelevantFactIsRemoved(t *testing.T) {
	q := query.MustParse("R(x | y), S(u | y)")
	d := factsDB(t, `
		R(a | 1)
		R(a | 2)
		S(u | 1)
	`)
	// R(a|2) is irrelevant (no S-fact with y=2), so block R(a|*) goes;
	// then S(u|1) loses its join partner and goes too.
	pd, _ := Purify(q, d, nil)
	if pd.Len() != 0 {
		t.Errorf("expected empty purified db, got:\n%s", pd)
	}
}
