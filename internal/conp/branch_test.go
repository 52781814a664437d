package conp

import (
	"context"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/workload"
)

// scanBest is the branching rule read off every constraint: the live
// constraint of cons with the fewest facts, ties to the earliest in
// cons. The search keeps its position in a sorted order instead; this
// full scan is the oracle it must agree with at every node.
func scanBest(s *Search, cons []int32) int32 {
	best, bestLen := int32(-1), 0
	for _, ci := range cons {
		if s.dead[ci] == 0 && (best == -1 || len(s.cs.Cons[ci]) < bestLen) {
			best, bestLen = ci, len(s.cs.Cons[ci])
		}
	}
	return best
}

// watchBranching makes every node of s's next run compare its pick with
// scanBest over cons, the list in the caller's order. It returns the
// number of nodes checked so far.
func watchBranching(t *testing.T, s *Search, cons []int32) *int {
	t.Helper()
	nodes := 0
	s.onBranch = func(ci int32) {
		nodes++
		if want := scanBest(s, cons); ci != want {
			t.Fatalf("node %d branches on constraint %d, the full scan picks %d", nodes, ci, want)
		}
	}
	return &nodes
}

// randomForm hand-builds a repair-constraint form of up to 8 blocks of
// 1-3 facts, with 1-, 2- and 3-ref constraints over distinct blocks, so
// the length rule of the branching order matters (no self-join-free
// query yields mixed lengths).
func randomForm(rng *rand.Rand) *match.Constraints {
	cs := &match.Constraints{}
	nb := 3 + rng.Intn(6)
	for b := 0; b < nb; b++ {
		cs.Blocks = append(cs.Blocks, db.Block{Facts: make([]db.Fact, 1+rng.Intn(3))})
	}
	for nc := 1 + rng.Intn(12); len(cs.Cons) < nc; {
		var c []match.Ref
		for _, b := range rng.Perm(nb)[:1+rng.Intn(3)] {
			c = append(c, match.Ref{Block: int32(b), Slot: int32(rng.Intn(len(cs.Blocks[b].Facts)))})
		}
		cs.Cons = append(cs.Cons, c)
	}
	cs.Embeddings = len(cs.Cons)
	return cs
}

// components splits a form's blocks and constraints into connected
// components, each list ascending.
func components(cs *match.Constraints) (cons, blocks [][]int32) {
	comp := make([]int, len(cs.Blocks))
	for b := range comp {
		comp[b] = b
	}
	find := func(b int) int {
		for comp[b] != b {
			b = comp[b]
		}
		return b
	}
	for _, c := range cs.Cons {
		for _, r := range c[1:] {
			comp[find(int(r.Block))] = find(int(c[0].Block))
		}
	}
	at := map[int]int{}
	for b := range cs.Blocks {
		root := find(b)
		if _, ok := at[root]; !ok {
			at[root] = len(blocks)
			blocks, cons = append(blocks, nil), append(cons, nil)
		}
		blocks[at[root]] = append(blocks[at[root]], int32(b))
	}
	for ci, c := range cs.Cons {
		k := at[find(int(c[0].Block))]
		cons[k] = append(cons[k], int32(ci))
	}
	return cons, blocks
}

// bruteFalsifying counts the choices over blocks that leave out some
// fact of every constraint in cons.
func bruteFalsifying(cs *match.Constraints, cons, blocks []int32) int64 {
	pick := make([]int32, len(cs.Blocks))
	var n int64
	var rec func(i int)
	rec = func(i int) {
		if i == len(blocks) {
			for _, ci := range cons {
				whole := true
				for _, r := range cs.Cons[ci] {
					whole = whole && pick[r.Block] == r.Slot
				}
				if whole {
					return
				}
			}
			n++
			return
		}
		for f := range cs.Blocks[blocks[i]].Facts {
			pick[blocks[i]] = int32(f)
			rec(i + 1)
		}
	}
	rec(0)
	return n
}

// TestBranchingMatchesScan: on hand-built forms with mixed constraint
// lengths, every node of the decision and of the count of each
// component (its constraints handed over shuffled, so the tie rule
// follows the caller's order) branches on the constraint the full scan
// picks, and the count is the brute-force one.
func TestBranchingMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	total := 0
	for trial := 0; trial < 400; trial++ {
		cs := randomForm(rng)
		all, blocks := wholeForm(cs)

		s := NewSearch(cs, nil)
		nodes := watchBranching(t, s, all)
		found, _ := s.decide()
		if want := bruteFalsifying(cs, all, blocks) > 0; found != want {
			t.Fatalf("trial %d: decide found=%v, brute force %v", trial, found, want)
		}
		total += *nodes

		// One search counts every component, as package counting runs it.
		s = NewSearch(cs, nil)
		compCons, compBlocks := components(cs)
		for k, cons := range compCons {
			rng.Shuffle(len(cons), func(i, j int) { cons[i], cons[j] = cons[j], cons[i] })
			nodes := watchBranching(t, s, cons)
			n, _, err := s.Count(cons, compBlocks[k])
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteFalsifying(cs, cons, compBlocks[k]); n != want {
				t.Fatalf("trial %d component %d: count %d, brute force %d", trial, k, n, want)
			}
			total += *nodes
		}
	}
	if total < 1000 {
		t.Fatalf("only %d nodes checked", total)
	}
}

// TestBranchingMatchesScanOnPins runs the check over the effort-pin
// instances: every node of each decision, and the first nodes of a
// count over each whole form, cut short by a step budget.
func TestBranchingMatchesScanOnPins(t *testing.T) {
	q := workload.SATQuery()
	for _, p := range effortPins {
		cs, err := match.NewIndex(p.build()).Constraints(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		pc, _ := cs.Purified()
		all, blocks := wholeForm(pc)
		s := NewSearch(pc, nil)
		nodes := watchBranching(t, s, all)
		if _, st := s.decide(); *nodes == 0 || st.Decisions != p.decisions {
			t.Fatalf("%s: %d nodes checked, stats %+v", p.name, *nodes, st)
		}

		chk := evalctx.New(context.Background(), evalctx.Limits{MaxSteps: 5000, Interval: 1})
		s = NewSearch(pc, chk)
		nodes = watchBranching(t, s, all)
		// The budget may cut the count short: only the nodes it visits
		// matter here, so its result and error are not.
		_, _, _ = s.Count(all, blocks)
		if *nodes == 0 {
			t.Fatalf("%s: the count checked no node", p.name)
		}
	}
}

// TestCountSetupAllocationFree: a count over constraints that need
// sorting reuses the search's order buffer, as package counting's one
// search per component requires.
func TestCountSetupAllocationFree(t *testing.T) {
	cs := &match.Constraints{
		Blocks: []db.Block{{Facts: make([]db.Fact, 2)}, {Facts: make([]db.Fact, 2)}, {Facts: make([]db.Fact, 2)}},
		Cons: [][]match.Ref{
			{{Block: 0, Slot: 0}, {Block: 1, Slot: 0}, {Block: 2, Slot: 0}},
			{{Block: 0, Slot: 1}, {Block: 1, Slot: 1}},
			{{Block: 2, Slot: 1}},
		},
	}
	cons, blocks := wholeForm(cs)
	s := NewSearch(cs, nil)
	var n int64
	if allocs := testing.AllocsPerRun(100, func() { n, _, _ = s.Count(cons, blocks) }); allocs != 0 {
		t.Errorf("Count allocates %v times per call", allocs)
	}
	if want := bruteFalsifying(cs, cons, blocks); n != want {
		t.Errorf("count %d, brute force %d", n, want)
	}
}
