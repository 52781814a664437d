package rewrite

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/trace"
)

// TestBlockMemoGuardCases: levels whose key is ground while a non-key
// relevant slot is already bound — by a candidate binding or by an
// earlier atom — are not decided by their block alone, so they must stay
// off the block memo. Every entry point of the walk agrees with the
// reference recursion and with the repair oracle on each case.
func TestBlockMemoGuardCases(t *testing.T) {
	cases := []struct {
		name    string
		q       string
		facts   string
		binding query.Valuation
	}{
		{"path, last variable bound", "R(x | y), S(y | z)", `
			R(a | b)
			R(a | c)
			R(d | b)
			S(b | t)
			S(b | u)
			S(c | t)`, query.Valuation{"z": "t"}},
		{"three-atom path, last variable bound", "R(x | y), S(y | z), T(z | w)", `
			R(a | b)
			R(d | c)
			S(b | e)
			S(c | e)
			S(c | f)
			T(e | g)
			T(f | g)
			T(f | h)`, query.Valuation{"w": "g"}},
		{"later atom repeats an earlier non-key variable", "R(x | y), S(y | z), T(y | z)", `
			R(a | b)
			R(d | c)
			S(b | t)
			S(b | u)
			S(c | t)
			T(b | t)
			T(c | t)
			T(c | u)`, nil},
		{"repeat, one block passes", "R(x | y), S(y | z), T(y | z)", `
			R(a | b)
			R(d | c)
			S(b | t)
			S(b | u)
			S(c | t)
			T(b | t)
			T(c | t)`, nil},
		{"constant in a key", "R(x | y), S('c', y | z), T(y | z)", `
			R(a | b)
			R(d | e)
			S(c, b | t)
			S(c, b | u)
			S(c, e | t)
			T(b | t)
			T(e | t)`, nil},
		{"constant top key, bound non-key", "R('a' | y), S(y | z)", `
			R(a | b)
			R(a | c)
			S(b | t)
			S(c | t)
			S(c | u)`, query.Valuation{"z": "t"}},
		{"key absent from the relation", "R(x | y), S(y | z), T(y | z)", `
			R(a | b)
			R(a | c)
			R(d | b)
			S(b | t)
			S(c | t)
			T(b | t)`, nil},
		{"key absent, bound non-key", "R(x | y), S(y | z)", `
			R(a | b)
			R(d | e)
			S(b | t)
			S(b | u)`, query.Valuation{"z": "t"}},
		{"relation with no facts", "R(x | y), S(y | z), T(y | z)", `
			R(a | b)
			S(b | t)`, nil},
		{"relation with no facts, bound non-key", "R(x | y), S(y | z)", `
			R(a | b)
			R(d | e)`, query.Valuation{"z": "t"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustParse(tc.q)
			d := factsDB(t, tc.facts)
			el, err := CompileAcyclic(q)
			if err != nil {
				t.Fatalf("compile %s: %v", q, err)
			}
			ix := match.NewIndex(d)
			binds := []query.Valuation{nil}
			if tc.binding != nil {
				binds = append(binds, tc.binding)
			}
			for _, bind := range binds {
				bq := q.Substitute(bind)
				want := CertainAcyclic(bq, d)
				truth, err := naive.Certain(bq, d)
				if err != nil {
					t.Fatal(err)
				}
				if want != truth {
					t.Fatalf("binding %v: reference=%v naive=%v", bind, want, truth)
				}
				got, err := el.CertainChecked(ix, bind, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("binding %v: CertainChecked=%v, want %v", bind, got, want)
				}
			}

			want := CertainAcyclic(q, d)
			all, err := el.CertainOverSpans(ix, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			union := false
			if cr := d.Columnar().Rel(el.Order()[0].Rel.Name); cr != nil {
				for b := int32(0); b < int32(cr.Rel.NumBlocks()); b++ {
					res, err := el.CertainOverSpans(ix, []int32{b}, nil)
					if err != nil {
						t.Fatal(err)
					}
					union = union || res
				}
			}
			if all != want || union != want {
				t.Fatalf("CertainOverSpans all=%v per-block OR=%v, want %v", all, union, want)
			}

			var free []query.Var
			for _, a := range el.Order()[0].KeyArgs() {
				if a.IsVar() {
					free = append(free, a.Var())
				}
			}
			if len(free) == 0 || !el.SweepableFree(free) {
				return
			}
			got, err := el.SweepSpans(ix, nil, free, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceAnswers(q, el, free, d)
			for _, b := range d.BlocksOf(el.Order()[0].Rel.Name) {
				cand := query.Valuation{}
				if !match.UnifyTerms(el.Order()[0].KeyArgs(), b.Facts[0].Key(), cand) {
					continue
				}
				ok, err := naive.Certain(q.Substitute(cand), d)
				if err != nil {
					t.Fatal(err)
				}
				if ok != ref[cand.Key()] {
					t.Fatalf("candidate %v: reference=%v naive=%v", cand, ref[cand.Key()], ok)
				}
			}
			if !sameKeys(keySet(got, free), ref) {
				t.Fatalf("SweepSpans %v, reference %v", got, ref)
			}
		})
	}
}

// epochWrapDBs returns two databases on which R(x | y), S(y | 'c')
// decides differently with identical memo keys: the level-0 entry has
// no bound slot and the S block sits at position 0 in both.
func epochWrapDBs(t *testing.T) (certain, falsified *match.Index) {
	return match.NewIndex(factsDB(t, "R(a | b)\nS(b | c)")),
		match.NewIndex(factsDB(t, "R(a | b)\nS(b | c)\nS(b | e)"))
}

// checkAcrossWrap runs CertainChecked alternately on the two databases
// with one evaluation state, set up by prime just before the first run,
// and compares each answer with a freshly compiled eliminator's.
func checkAcrossWrap(t *testing.T, prime func(*ieval)) {
	t.Helper()
	q := query.MustParse("R(x | y), S(y | 'c')")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	yes, no := epochWrapDBs(t)
	// The warm run records entries at the first epoch of each memo,
	// which is where the evaluations wrap back to.
	if got, err := el.CertainChecked(yes, nil, nil); err != nil || !got {
		t.Fatalf("warm run: %v, %v; want certain", got, err)
	}
	st := el.ievalCache.Load()
	if st == nil {
		t.Fatal("no cached evaluation state after a run")
	}
	prime(st)
	for i := 0; i < 2*blkEpochs+4; i++ {
		ix := no
		if i%2 == 1 {
			ix = yes
		}
		got, err := el.CertainChecked(ix, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if el.ievalCache.Load() != st {
			t.Fatal("the evaluation did not reuse the primed state")
		}
		fresh, err := CompileAcyclic(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.CertainChecked(ix, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d after the wrap: reused state %v, fresh state %v", i, got, want)
		}
	}
}

// TestMemoEpochWrap: the general memo table's epoch wraps to a cleared
// table — entries from 2^32 evaluations back never read as current.
func TestMemoEpochWrap(t *testing.T) {
	checkAcrossWrap(t, func(ev *ieval) { ev.memo.epoch = math.MaxUint32 })
}

// TestBlockMemoEpochWrap: the block memo's seven-bit epoch wraps to
// cleared arrays — entries from 127 evaluations back never read as
// current.
func TestBlockMemoEpochWrap(t *testing.T) {
	checkAcrossWrap(t, func(ev *ieval) { ev.blkEpoch = blkEpochs - 1 })
}

// eliminatorCounters runs f under a tracer and returns the
// eliminator stage's step and memo counters.
func eliminatorCounters(t *testing.T, f func(chk *evalctx.Checker) error) (steps, hits, misses int64) {
	t.Helper()
	tr := trace.New()
	if err := f(evalctx.NewTraced(context.Background(), evalctx.Limits{}, tr)); err != nil {
		t.Fatal(err)
	}
	for _, st := range tr.Breakdown() {
		if st.Stage == trace.StageEliminator.String() {
			c := st.Counters
			return c[trace.CtrSteps.String()], c[trace.CtrMemoHits.String()], c[trace.CtrMemoMisses.String()]
		}
	}
	t.Fatal("no eliminator stage in the trace")
	return
}

// TestMemoCounters pins what the walk's counters mean. steps counts
// level visits (one poll each, the empty residue included); memo_misses
// counts visits decided by evaluation — a key absent from the relation
// among them — and memo_hits visits answered by a memo.
//
// On the chain below the walk visits block a (S[b] evaluated, S key e
// absent: block a fails) and then block d (S[b] a hit, S[c]
// evaluated). The sweep decides both top blocks itself, with one step
// each and no memo visit.
func TestMemoCounters(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(factsDB(t, `
		R(a | b)
		R(a | e)
		R(d | b)
		R(d | c)
		S(b | t)
		S(b | u)
		S(c | t)
		S(c | u)
	`))
	var certain bool
	steps, hits, misses := eliminatorCounters(t, func(chk *evalctx.Checker) (err error) {
		certain, err = el.CertainChecked(ix, nil, chk)
		return err
	})
	if !certain || steps != 9 || hits != 1 || misses != 4 {
		t.Errorf("CertainChecked: certain=%v steps=%d memo_hits=%d memo_misses=%d, want true 9 1 4",
			certain, steps, hits, misses)
	}
	var tab query.Answers
	steps, hits, misses = eliminatorCounters(t, func(chk *evalctx.Checker) (err error) {
		tab, err = el.SweepSpans(ix, nil, []query.Var{"x"}, nil, chk)
		return err
	})
	if len(tab) != 1 || tab[0][0] != "d" || steps != 10 || hits != 1 || misses != 3 {
		t.Errorf("SweepSpans: answers=%v steps=%d memo_hits=%d memo_misses=%d, want [[d]] 10 1 3",
			tab, steps, hits, misses)
	}
}

// TestBlockMemoConcurrentViews: goroutines sharing one Eliminator
// evaluate a snapshot and a child version with many more blocks in the
// probed relation, so pooled evaluation states move between views and
// regrow their block arrays. Every answer equals a serial run's.
func TestBlockMemoConcurrentViews(t *testing.T) {
	q := query.MustParse("R(x | y), S(y | z)")
	el, err := CompileAcyclic(q)
	if err != nil {
		t.Fatal(err)
	}
	rRel := schema.Relation{Name: "R", Arity: 2, KeyLen: 1}
	sRel := schema.Relation{Name: "S", Arity: 2, KeyLen: 1}
	const n = 300
	parent := db.New()
	var delta db.Delta
	for i := 0; i < n; i++ {
		r := query.Const(fmt.Sprintf("r%d", i))
		parent.Add(db.NewFact(rRel, r, query.Const(fmt.Sprintf("s%d", i))))
		parent.Add(db.NewFact(rRel, r, query.Const(fmt.Sprintf("s%d", i*7%n))))
		s := db.NewFact(sRel, query.Const(fmt.Sprintf("s%d", i)), "t")
		if i%15 == 0 {
			parent.Add(s)
		} else {
			delta.Insert(s)
		}
	}
	parent.Add(db.NewFact(sRel, "s0", "u"))
	child, _, err := parent.ApplyChanges(delta)
	if err != nil {
		t.Fatal(err)
	}
	free := []query.Var{"x"}
	type result struct {
		certain, bound bool
		answers        []string
	}
	eval := func(ix *match.Index) (result, error) {
		var r result
		var err error
		if r.certain, err = el.CertainChecked(ix, nil, nil); err != nil {
			return r, err
		}
		if r.bound, err = el.CertainChecked(ix, query.Valuation{"x": "r45"}, nil); err != nil {
			return r, err
		}
		tab, err := el.SweepSpans(ix, nil, free, nil, nil)
		for _, row := range tab {
			r.answers = append(r.answers, string(row[0]))
		}
		return r, err
	}
	ixs := []*match.Index{match.NewIndex(parent), match.NewIndex(child)}
	want := make([]result, len(ixs))
	for i, ix := range ixs {
		if want[i], err = eval(ix); err != nil {
			t.Fatal(err)
		}
	}
	if slices.Equal(want[0].answers, want[1].answers) {
		t.Fatal("fixture: the child's new S blocks should change the answers")
	}
	// Half the goroutines read the snapshot, half the child.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				v := g % 2
				got, err := eval(ixs[v])
				if err != nil {
					errs <- err
					return
				}
				if got.certain != want[v].certain || got.bound != want[v].bound || !slices.Equal(got.answers, want[v].answers) {
					errs <- fmt.Errorf("goroutine %d, view %d: %+v, serial %+v", g, v, got, want[v])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
