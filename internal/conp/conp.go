// Package conp implements an exact solver for CERTAINTY(q) based on a
// search for a falsifying repair. Certainty fails iff one can pick one
// fact per block such that no embedding of q survives; that is a
// multi-valued constraint-satisfaction problem with one variable per block
// (domain: the facts of the block) and one "not all chosen" constraint per
// embedding of q into db.
//
// The solver runs DPLL-style backtracking with violation pruning and a
// most-constrained-block ordering. It is exponential in the worst case —
// necessarily so for the coNP-complete queries of Theorem 3 (unless
// P = NP) — but it is exact for every query and doubles as a
// cross-checking engine for the polynomial-time cases.
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
	Blocks    int // decision variables after purification
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
	var stats Stats
	if q.Empty() {
		return true, stats
	}
	cs, _ := match.NewIndex(d).Constraints(q, nil)
	stats.Matches = cs.Embeddings
	stats.Blocks = len(cs.Blocks)
	return !newSearch(cs, nil).solveRec(&stats), stats
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
	var stats Stats
	if q.Empty() {
		return nil, false, stats, nil // the empty query is true in every repair
	}
	tr := chk.Tracer()
	sp := tr.Begin(trace.StageMatch)
	cs, err := match.NewIndex(d).Constraints(q, chk)
	sp.End()
	if err != nil {
		return nil, false, stats, err
	}
	tr.Add(trace.StageMatch, trace.CtrMatches, int64(cs.Embeddings))
	sp = tr.Begin(trace.StagePurify)
	pc, witnesses := cs.Purified()
	sp.End()
	tr.Add(trace.StagePurify, trace.CtrFacts, int64(d.NumBlocks()-len(pc.Blocks)))
	stats.Matches = pc.Embeddings
	stats.Blocks = len(pc.Blocks)

	s := newSearch(pc, chk)
	sp = tr.Begin(trace.StageCoNP)
	found := s.solveRec(&stats)
	sp.End()
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
	for _, b := range d.Blocks() {
		if !cs.Constrained(b) {
			repair = append(repair, b.Facts[0])
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

// search is the exclusion DPLL over one repair-constraint form. Facts
// are numbered flat: block b's slot i is fact off[b]+i.
type search struct {
	// chk aborts the enumeration when its context is cancelled or its
	// step budget runs out; solveRec's boolean is meaningless once the
	// checker has tripped (the caller surfaces chk.Err() instead).
	chk    *evalctx.Checker
	blocks []db.Block
	// off[b] is the flat index of block b's first fact; off[len(blocks)]
	// is the fact count.
	off []int
	// blockOf[f] is the block index of fact f.
	blockOf []int
	// constraints[c] lists the fact indices of embedding c; each
	// constraint forbids choosing all of its facts simultaneously.
	constraints [][]int
	// inConstraints[f] lists constraint indices containing fact f.
	inConstraints [][]int
	// forbidden[f] marks facts excluded from the repair under
	// construction (their block is committed to some other fact).
	forbidden []bool
	// forbCount[b] counts forbidden facts of block b; it must stay
	// strictly below the block's size.
	forbCount []int
	// dead[c] counts forbidden facts of constraint c; dead > 0 means the
	// embedding is blocked.
	dead []int
	// alive counts constraints with dead == 0 (not yet blocked).
	alive int
}

func newSearch(cs *match.Constraints, chk *evalctx.Checker) *search {
	s := &search{chk: chk, blocks: cs.Blocks, off: make([]int, len(cs.Blocks)+1)}
	for b, blk := range cs.Blocks {
		s.off[b+1] = s.off[b] + len(blk.Facts)
		for range blk.Facts {
			s.blockOf = append(s.blockOf, b)
		}
	}
	n := s.off[len(cs.Blocks)]
	s.inConstraints = make([][]int, n)
	s.constraints = make([][]int, len(cs.Cons))
	for ci, refs := range cs.Cons {
		c := make([]int, len(refs))
		for i, r := range refs {
			fi := s.off[r.Block] + int(r.Slot)
			c[i] = fi
			s.inConstraints[fi] = append(s.inConstraints[fi], ci)
		}
		s.constraints[ci] = c
	}
	s.forbidden = make([]bool, n)
	s.forbCount = make([]int, len(cs.Blocks))
	s.dead = make([]int, len(cs.Cons))
	s.alive = len(cs.Cons)
	return s
}

// forbid excludes fact fi; the caller guarantees fi is not yet forbidden
// and that its block retains at least one candidate.
func (s *search) forbid(fi int) {
	s.forbidden[fi] = true
	s.forbCount[s.blockOf[fi]]++
	for _, ci := range s.inConstraints[fi] {
		if s.dead[ci] == 0 {
			s.alive--
		}
		s.dead[ci]++
	}
}

func (s *search) unforbid(fi int) {
	s.forbidden[fi] = false
	s.forbCount[s.blockOf[fi]]--
	for _, ci := range s.inConstraints[fi] {
		s.dead[ci]--
		if s.dead[ci] == 0 {
			s.alive++
		}
	}
}

// canForbid reports whether excluding fi keeps its block viable.
func (s *search) canForbid(fi int) bool {
	b := s.blockOf[fi]
	return !s.forbidden[fi] && s.forbCount[b] < s.off[b+1]-s.off[b]-1
}

// chooseFact commits fi's block to fi by excluding every sibling; it
// returns the facts newly forbidden (for undo) and whether the commitment
// is possible (fi itself must not be forbidden).
func (s *search) chooseFact(fi int, trail []int) ([]int, bool) {
	if s.forbidden[fi] {
		return trail, false
	}
	b := s.blockOf[fi]
	for g := s.off[b]; g < s.off[b+1]; g++ {
		if g == fi || s.forbidden[g] {
			continue
		}
		s.forbid(g)
		trail = append(trail, g)
	}
	return trail, true
}

// repair returns the first non-forbidden fact of every block; valid
// only after solveRec returned true, when every block keeps one.
func (s *search) repair() []db.Fact {
	out := make([]db.Fact, 0, len(s.blocks))
	for b, blk := range s.blocks {
		fi := s.off[b]
		for s.forbidden[fi] {
			fi++
		}
		out = append(out, blk.Facts[fi-s.off[b]])
	}
	return out
}

// solveRec is an exclusion-based DPLL. A falsifying repair exists iff
// every embedding loses at least one fact while every block keeps at
// least one. While some constraint is alive, pick the one with the
// fewest facts and split its satisfaction into DISJOINT branches:
// branch i commits facts 1..i-1 to their blocks (they stay chosen) and
// excludes fact i. Any falsifier blocks the constraint at some first
// position, so exactly one branch covers it.
func (s *search) solveRec(stats *Stats) bool {
	if s.chk.Step() != nil {
		return false
	}
	if s.alive == 0 {
		return true
	}
	best := -1
	for ci := range s.constraints {
		if s.dead[ci] != 0 {
			continue
		}
		if best == -1 || len(s.constraints[ci]) < len(s.constraints[best]) {
			best = ci
		}
	}
	c := s.constraints[best]
	var trail []int
	ok := true
	for i, fi := range c {
		if ok && s.canForbid(fi) {
			stats.Decisions++
			s.forbid(fi)
			if s.solveRec(stats) {
				return true
			}
			s.unforbid(fi)
		}
		if i == len(c)-1 {
			break
		}
		// Commit fi for the remaining branches.
		trail, ok = s.chooseFact(fi, trail)
		if !ok {
			break
		}
	}
	for k := len(trail) - 1; k >= 0; k-- {
		s.unforbid(trail[k])
	}
	stats.Backtrack++
	return false
}
