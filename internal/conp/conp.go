// Package conp implements an exact solver for CERTAINTY(q) based on a
// search for a falsifying repair. Certainty fails iff one can pick one
// fact per block such that no embedding of q survives; that is a
// multi-valued constraint-satisfaction problem with one variable per block
// (domain: the facts of the block) and one "not all chosen" constraint per
// embedding of q into db.
//
// The solver runs DPLL-style backtracking with violation pruning. It
// branches on the first live constraint in (length, index) order — for a
// self-join-free q every constraint has |q| facts, so that is index
// order — and keeps its position in that order from node to node instead
// of rescanning the constraints. It is exponential in the worst case —
// necessarily so for the coNP-complete queries of Theorem 3 (unless
// P = NP) — but it is exact for every query and doubles as a
// cross-checking engine for the polynomial-time cases. The same search,
// run to the end, counts the falsifying choices: package counting uses
// it for every component it counts exactly.
package conp

import (
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/trace"
)

// Stats reports search effort.
type Stats struct {
	Blocks    int // decision variables (after purification when deciding)
	Matches   int // constraints
	Decisions int // assignments explored
	Backtrack int // failed subtrees
}

// Certain reports whether every repair of d satisfies q. The returned
// Stats describe the search.
func Certain(q query.Query, d *db.DB) (bool, Stats) {
	_, found, stats := FalsifyingRepair(q, d)
	return !found, stats
}

// CertainChecked is Certain under a cancellation/budget checker: the
// exponential repair search — the dangerous path for the coNP-complete
// queries of Theorem 3 — polls chk once per search node and unwinds as
// soon as it trips. A non-nil error means the search was cut short and
// the boolean is meaningless. A nil checker enforces nothing.
func CertainChecked(q query.Query, d *db.DB, chk *evalctx.Checker) (bool, Stats, error) {
	_, found, stats, err := FalsifyingRepairChecked(q, d, chk)
	return !found, stats, err
}

// CertainNoPurify is Certain with Lemma 1 purification disabled; the
// search then runs over every constrained block of the input. Exists
// for the E9 ablation experiment — results are identical, only effort
// differs.
func CertainNoPurify(q query.Query, d *db.DB) (bool, Stats) {
	if q.Empty() {
		return true, Stats{}
	}
	cs, _ := match.NewIndex(d).Constraints(q, nil)
	found, stats := NewSearch(cs, nil).decide()
	stats.Matches = cs.Embeddings
	stats.Blocks = len(cs.Blocks)
	return !found, stats
}

// FalsifyingRepair searches for a repair of d that falsifies q. The
// boolean result reports whether one exists; when it does, the returned
// facts form a complete repair of d (one fact per block) that does not
// satisfy q: the search's choice on the blocks purification keeps, the
// purification witness on the blocks it drops, and the first fact of
// every block no embedding touches.
func FalsifyingRepair(q query.Query, d *db.DB) ([]db.Fact, bool, Stats) {
	repair, found, stats, _ := FalsifyingRepairChecked(q, d, nil)
	return repair, found, stats
}

// FalsifyingRepairChecked is FalsifyingRepair under a cancellation/
// budget checker. On a non-nil error the search was abandoned mid-way:
// the repair is nil and the boolean meaningless.
func FalsifyingRepairChecked(q query.Query, d *db.DB, chk *evalctx.Checker) ([]db.Fact, bool, Stats, error) {
	if q.Empty() {
		return nil, false, Stats{}, nil // the empty query is true in every repair
	}
	tr := chk.Tracer()
	sp := tr.Begin(trace.StageMatch)
	cs, err := match.NewIndex(d).Constraints(q, chk)
	sp.End()
	if err != nil {
		return nil, false, Stats{}, err
	}
	tr.Add(trace.StageMatch, trace.CtrMatches, int64(cs.Embeddings))
	sp = tr.Begin(trace.StagePurify)
	pc, witnesses, err := cs.Purified(chk)
	sp.End()
	if err != nil {
		return nil, false, Stats{}, err
	}
	tr.Add(trace.StagePurify, trace.CtrFacts, int64(d.NumBlocks()-len(pc.Blocks)))

	s := NewSearch(pc, chk)
	sp = tr.Begin(trace.StageCoNP)
	found, stats := s.decide()
	sp.End()
	stats.Matches = pc.Embeddings
	stats.Blocks = len(pc.Blocks)
	flushStats(tr, stats)
	if err := chk.Err(); err != nil {
		return nil, false, stats, err
	}
	if !found {
		return nil, false, stats, nil
	}
	// No witness can close an embedding (see match.Constraints.Purified),
	// and a block no embedding touches cannot either.
	repair := append(s.repair(), witnesses...)
	for _, name := range d.RelationOrder() {
		for pos, b := range d.BlocksOf(name) {
			if !cs.Constrained(name, pos) {
				repair = append(repair, b.Facts[0])
			}
		}
	}
	return repair, true, stats, nil
}

// flushStats reports the search effort to the stage tracer: DPLL
// decisions are search nodes, failed subtrees are restarts.
func flushStats(tr *trace.Tracer, stats Stats) {
	if tr == nil {
		return
	}
	tr.Add(trace.StageCoNP, trace.CtrNodes, int64(stats.Decisions))
	tr.Add(trace.StageCoNP, trace.CtrRestarts, int64(stats.Backtrack))
	tr.Add(trace.StageCoNP, trace.CtrFacts, int64(stats.Blocks))
	tr.Add(trace.StageCoNP, trace.CtrMatches, int64(stats.Matches))
}

// Search is the exclusion DPLL over one repair-constraint form. A
// choice of one fact per block falsifies q iff it leaves out some fact
// of every constraint. The search decides, stopping at the first such
// choice, and counts, summing them over a run to the end. Facts are
// numbered flat by the form's Incidence.
type Search struct {
	// chk aborts the search when its context is cancelled or its step
	// budget runs out; a run's result is meaningless once it has tripped
	// (the callers surface chk.Err() instead).
	chk *evalctx.Checker
	cs  *match.Constraints
	in  match.Incidence
	// forbidden[f] marks facts excluded from the repair under
	// construction (their block is committed to some other fact).
	forbidden []bool
	// forbCount[b] counts forbidden facts of block b; it must stay
	// strictly below the block's size.
	forbCount []int32
	// dead[c] counts forbidden facts of constraint c; dead > 0 means the
	// embedding is blocked.
	dead []int32
	// cons are the constraints a run branches on, by ascending length,
	// ties by their position in the caller's list; alive counts those
	// not yet blocked. A node branches on the first live entry of cons.
	cons  []int32
	alive int
	// next is the position in cons before which every constraint is
	// dead at the current node.
	next int
	// order backs cons when the caller's list is not already sorted; it
	// is reused from run to run.
	order []int32
	// onBranch, when set, sees each node's branching constraint before
	// the node branches on it; tests check the pick against a full scan.
	onBranch func(ci int32)
	// blocks are the blocks a counting run multiplies out at each leaf,
	// nil while deciding; falsifying sums the leaves.
	blocks     []int32
	falsifying int64
	stats      Stats
	// trail stacks the facts that commitments forbade, for undo; each
	// node pops back to where it started.
	trail []match.Ref
}

// NewSearch prepares the search over cs under the checker.
func NewSearch(cs *match.Constraints, chk *evalctx.Checker) *Search {
	in := cs.Incidence()
	return &Search{chk: chk, cs: cs, in: in,
		forbidden: make([]bool, len(in.At)-1),
		forbCount: make([]int32, len(cs.Blocks)),
		dead:      make([]int32, len(cs.Cons)),
	}
}

// decide reports whether some choice over all of the form's blocks
// falsifies q, with the effort spent.
func (s *Search) decide() (bool, Stats) {
	all := make([]int32, len(s.cs.Cons))
	for ci := range all {
		all[ci] = int32(ci)
	}
	s.setCons(all)
	s.blocks, s.stats = nil, Stats{}
	found := s.run()
	return found, s.stats
}

// Count returns the number of choices of one fact per block in blocks
// that falsify every constraint in cons, with the effort spent. The
// constraints in cons must be exactly those touching blocks, as in a
// connected component of the form, and the product of the blocks'
// sizes must fit an int64. A tripped checker returns its error.
func (s *Search) Count(cons, blocks []int32) (int64, Stats, error) {
	s.setCons(cons)
	s.blocks, s.falsifying = blocks, 0
	s.stats = Stats{Blocks: len(blocks), Matches: len(cons)}
	s.run()
	if err := s.chk.Err(); err != nil {
		return 0, s.stats, err
	}
	return s.falsifying, s.stats, nil
}

// setCons makes cons the constraints of the next run. Unless they are
// already in ascending length, it lists them in the reused order buffer
// shortest first, each length in the caller's order: one pass per
// length, and a constraint has at most one ref per atom of q.
func (s *Search) setCons(cons []int32) {
	s.cons, s.alive, s.next = cons, len(cons), 0
	sorted, longest := true, 0
	for _, ci := range cons {
		n := len(s.cs.Cons[ci])
		sorted = sorted && n >= longest
		longest = max(longest, n)
	}
	if sorted {
		return
	}
	s.order = s.order[:0]
	for n := 0; n <= longest; n++ {
		for _, ci := range cons {
			if len(s.cs.Cons[ci]) == n {
				s.order = append(s.order, ci)
			}
		}
	}
	s.cons = s.order
}

// forbid excludes fact f of block b; the caller guarantees f is not yet
// forbidden and that b retains another candidate.
func (s *Search) forbid(b, f int32) {
	s.forbidden[f] = true
	s.forbCount[b]++
	for _, ci := range s.in.On[s.in.At[f]:s.in.At[f+1]] {
		if s.dead[ci] == 0 {
			s.alive--
		}
		s.dead[ci]++
	}
}

func (s *Search) unforbid(b, f int32) {
	s.forbidden[f] = false
	s.forbCount[b]--
	for _, ci := range s.in.On[s.in.At[f]:s.in.At[f+1]] {
		s.dead[ci]--
		if s.dead[ci] == 0 {
			s.alive++
		}
	}
}

// choose commits block r.Block to fact r by excluding every sibling
// still allowed, pushing each onto the trail.
func (s *Search) choose(r match.Ref) {
	lo := s.in.Off[r.Block]
	for g := lo; g < s.in.Off[r.Block+1]; g++ {
		if g-lo != r.Slot && !s.forbidden[g] {
			s.forbid(r.Block, g)
			s.trail = append(s.trail, match.Ref{Block: r.Block, Slot: g - lo})
		}
	}
}

// repair returns the first non-forbidden fact of every block; valid
// only after decide found a falsifying choice, when every block keeps
// one.
func (s *Search) repair() []db.Fact {
	out := make([]db.Fact, 0, len(s.cs.Blocks))
	for b, blk := range s.cs.Blocks {
		f := s.in.Off[b]
		for s.forbidden[f] {
			f++
		}
		out = append(out, blk.Facts[f-s.in.Off[b]])
	}
	return out
}

// run is the exclusion DPLL. A choice falsifies q iff every constraint
// loses at least one fact while every block keeps at least one. While
// some constraint is alive, pick the first live one in cons — the one
// with the fewest facts, ties to the earliest — and split its blocking
// into DISJOINT branches: branch i commits facts 1..i-1 to their blocks
// (they stay chosen) and excludes fact i. Every falsifying choice blocks
// the constraint at some first position, so exactly one branch covers
// it. A leaf with no live constraint is the set of choices that keep one
// allowed fact per block, all falsifying: deciding stops there, counting
// adds the set's size and goes on.
// (A live constraint's facts are never forbidden, and its blocks are
// distinct, so a commitment to one of them always succeeds.)
func (s *Search) run() bool {
	if s.chk.Step() != nil {
		return false
	}
	if s.alive == 0 {
		if s.blocks == nil {
			return true
		}
		n := int64(1)
		for _, b := range s.blocks {
			n *= int64(s.in.Off[b+1] - s.in.Off[b] - s.forbCount[b])
		}
		s.falsifying += n
		return false
	}
	// Constraints only die going down the tree, and a node's own
	// commitments never revive one that was dead at its entry: every
	// entry of cons before the parent's next is still dead here, so the
	// node skips forward from there, and puts next back when it
	// backtracks so its parent's next branch starts from the right place.
	saved := s.next
	for s.dead[s.cons[s.next]] != 0 {
		s.next++
	}
	if s.onBranch != nil {
		s.onBranch(s.cons[s.next])
	}
	c := s.cs.Cons[s.cons[s.next]]
	mark := len(s.trail)
	for i, r := range c {
		if s.forbCount[r.Block] < s.in.Off[r.Block+1]-s.in.Off[r.Block]-1 {
			s.stats.Decisions++
			f := s.in.Off[r.Block] + r.Slot
			s.forbid(r.Block, f)
			if s.run() {
				return true
			}
			s.unforbid(r.Block, f)
		}
		if i < len(c)-1 {
			s.choose(r)
		}
	}
	for k := len(s.trail) - 1; k >= mark; k-- {
		r := s.trail[k]
		s.unforbid(r.Block, s.in.Off[r.Block]+r.Slot)
	}
	s.trail = s.trail[:mark]
	s.next = saved
	s.stats.Backtrack++
	return false
}
