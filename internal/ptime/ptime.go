// Package ptime implements the polynomial-time algorithm of Theorem 4
// (Koutris & Wijsen, PODS 2015): CERTAINTY(q) for self-join-free Boolean
// conjunctive queries whose attack graph contains no strong cycle.
//
// The recursion follows the proof of Theorem 4, by induction on the
// number of mode-i atoms:
//
//  1. simplify the instance (purify, type, Lemma 12 pattern elimination
//     and key packing, Lemma 11 saturation);
//  2. if some mode-i atom is unattacked, branch over its blocks via
//     Lemma 9 and recurse on the instantiated residue query;
//  3. otherwise gpurify (Lemma 17), pick a premier Markov cycle
//     (Lemma 15), dissolve it (Definition 5, Lemmas 13/18), and recurse
//     on dissolve(C, q) — the mode-i atom count strictly decreases.
package ptime

import (
	"errors"
	"fmt"
	"strings"

	"cqa/internal/attack"
	"cqa/internal/db"
	"cqa/internal/dissolve"
	"cqa/internal/evalctx"
	"cqa/internal/markov"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/simplify"
	"cqa/internal/trace"
)

// Stats aggregates effort counters across the recursion.
type Stats struct {
	Levels       int // recursion depth reached
	Branches     int // Lemma 9 block/fact branches explored
	Dissolutions int // Markov-cycle dissolutions performed
	Saturations  int // Lemma 11 atoms added
	GPurifyRuns  int
	TFacts       int // facts emitted by dissolution encodings
}

// ErrInvariant reports a P-class instance on which a structural
// invariant of the reduction could not be established: the Lemma 11
// saturation database came out inconsistent, or Lemma 15's premier
// Markov cycle was not found. The algorithm then has no sound next
// step, so it fails closed rather than answer; no generated instance
// has reached either case. Match it with errors.Is.
var ErrInvariant = errors.New("ptime: reduction invariant violated")

// Certain decides CERTAINTY(q) for queries without a strong attack cycle.
// It returns an error when the attack graph has a strong cycle (the
// problem is coNP-complete there; use the conp engine), or when the input
// violates a structural invariant of the reduction.
func Certain(q query.Query, d *db.DB) (bool, *Stats, error) {
	ok, st, _, err := CertainTraced(q, d, false)
	return ok, st, err
}

// CertainTraced is Certain with an optional step-by-step trace of the
// Theorem 4 pipeline: purification effects, Lemma 9 branches, Lemma 11
// saturations, gpurification, and Markov-cycle dissolutions.
func CertainTraced(q query.Query, d *db.DB, trace bool) (bool, *Stats, []string, error) {
	g, err := attack.BuildGraph(q)
	if err != nil {
		return false, nil, nil, err
	}
	if g.HasStrongCycle() {
		return false, nil, nil, fmt.Errorf("ptime: attack graph of %s has a strong cycle; CERTAINTY is coNP-complete", q)
	}
	st := &Stats{}
	ctx := &solver{stats: st, tracing: trace}
	ok, err := ctx.solve(q, d, 0)
	return ok, st, ctx.trace, err
}

// CertainNoStrongCycleChecked runs the Theorem 4 algorithm for a query
// already known to have no strong attack cycle (for example from a
// compiled plan), skipping the attack-graph construction and
// strong-cycle check that Certain performs on every call. The result is
// meaningless on strong-cycle queries. The lemma loops poll chk once per
// recursion level and per Lemma 9 branch, so one budget governs the
// whole pipeline.
// A non-nil error means the evaluation was cut short and the boolean is
// meaningless. A nil checker enforces nothing.
func CertainNoStrongCycleChecked(q query.Query, d *db.DB, chk *evalctx.Checker) (bool, *Stats, error) {
	st := &Stats{}
	ctx := &solver{stats: st, chk: chk, memoCap: chk.MemoCap()}
	sp := chk.Tracer().Begin(trace.StagePTime)
	ok, err := ctx.solve(q, d, 0)
	sp.End()
	if tr := chk.Tracer(); tr != nil {
		tr.Add(trace.StagePTime, trace.CtrSteps, int64(st.Levels))
		tr.Add(trace.StagePTime, trace.CtrBranches, int64(st.Branches))
		tr.Add(trace.StagePTime, trace.CtrDissolutions, int64(st.Dissolutions))
		tr.Add(trace.StagePTime, trace.CtrFacts, int64(st.TFacts))
	}
	return ok, st, err
}

type solver struct {
	stats   *Stats
	tracing bool
	trace   []string
	chk     *evalctx.Checker
	// memo caches instantiated-query results per database identity; the
	// Lemma 9 branch recurses many times against the same database.
	memo     map[*db.DB]map[string]bool
	memoSize int
	memoCap  int // memo-entry ceiling across all databases (0 = unlimited)
}

func (s *solver) tracef(depth int, format string, args ...any) {
	if !s.tracing {
		return
	}
	s.trace = append(s.trace, strings.Repeat("  ", depth)+fmt.Sprintf(format, args...))
}

func (s *solver) memoGet(d *db.DB, key string) (bool, bool) {
	if s.memo == nil {
		return false, false
	}
	m := s.memo[d]
	if m == nil {
		return false, false
	}
	v, ok := m[key]
	return v, ok
}

func (s *solver) memoPut(d *db.DB, key string, v bool) {
	if s.memoCap > 0 && s.memoSize >= s.memoCap {
		// Memo budget exhausted: keep computing without caching. The
		// recursion stays correct, it just re-derives shared residues.
		return
	}
	if s.memo == nil {
		s.memo = make(map[*db.DB]map[string]bool)
	}
	m := s.memo[d]
	if m == nil {
		m = make(map[string]bool)
		s.memo[d] = m
	}
	if _, ok := m[key]; !ok {
		s.memoSize++
	}
	m[key] = v
}

const maxDepth = 64

func (s *solver) solve(q query.Query, d *db.DB, depth int) (bool, error) {
	if err := s.chk.Step(); err != nil {
		return false, err
	}
	if depth > maxDepth {
		return false, fmt.Errorf("ptime: recursion exceeded depth %d on %s", maxDepth, q)
	}
	if depth+1 > s.stats.Levels {
		s.stats.Levels = depth + 1
	}
	if q.Empty() {
		return true, nil
	}
	if q.InconsistencyCount() == 0 {
		// All atoms are known consistent: the only repair keeps every
		// mode-c fact, so certainty coincides with satisfaction.
		return match.Satisfies(q, d), nil
	}
	if v, ok := s.memoGet(d, q.Canonical()); ok {
		return v, nil
	}

	// Step 1: purify. Every fact of a purified database lies on an
	// embedding (Lemma 1), so it admits none exactly when it is empty, and
	// then some repair falsifies q.
	pd, _, err := match.PurifyTraceChecked(q, d, s.chk)
	if err != nil {
		return false, err
	}
	if pd.Len() != d.Len() {
		s.tracef(depth, "purify (Lemma 1): %d -> %d facts", d.Len(), pd.Len())
	}
	if pd.Len() == 0 {
		s.tracef(depth, "no embedding survives purification: NOT certain")
		s.memoPut(d, q.Canonical(), false)
		return false, nil
	}
	td, err := simplify.TypeDB(q, pd)
	if err != nil {
		return false, err
	}
	cur, curDB := q, td

	if step, changed := simplify.ElimPatterns(cur); changed {
		curDB, err = step.TransformDB(curDB)
		if err != nil {
			return false, err
		}
		s.tracef(depth, "eliminate patterns (Lemma 12): %s", step.Q)
		cur = step.Q
	}
	step, changed, err := simplify.PackCompositeKeys(cur)
	if err != nil {
		return false, err
	}
	if changed {
		curDB, err = step.TransformDB(curDB)
		if err != nil {
			return false, err
		}
		s.tracef(depth, "pack composite keys (Lemma 12): %s", step.Q)
		cur = step.Q
	}

	res, err := s.branch(cur, curDB, depth)
	if err != nil {
		return false, err
	}
	s.memoPut(d, q.Canonical(), res)
	return res, nil
}

// branch dispatches between the Lemma 9 case, incremental saturation, and
// the dissolution case. Saturation happens lazily — only when every
// mode-i atom is attacked, which is the only case whose correctness
// (Lemma 15) depends on it — and its database side is computed from the
// gpurified instance, where the per-gblock support structure pins a
// unique z-value per x-value.
func (s *solver) branch(q query.Query, d *db.DB, depth int) (bool, error) {
	for round := 0; ; round++ {
		if round > 2*len(q.Vars())*len(q.Vars())+4 {
			return false, fmt.Errorf("ptime: saturation loop did not converge on %s", q)
		}
		g, err := attack.BuildGraph(q)
		if err != nil {
			return false, err
		}
		if g.HasStrongCycle() {
			return false, fmt.Errorf("ptime: simplification introduced a strong cycle in %s", q)
		}
		for _, i := range g.Unattacked() {
			if q.Atoms[i].Rel.Mode != schema.ModeI {
				continue
			}
			s.tracef(depth, "branch on unattacked atom %s (Lemma 9)", q.Atoms[i].Rel.Name)
			return s.lemma9(q, q.Atoms[i], d, depth)
		}
		// All mode-i atoms are attacked: gpurify, then saturate one step
		// if needed, else dissolve.
		s.stats.GPurifyRuns++
		gd, err := match.GPurify(q, d)
		if err != nil {
			return false, err
		}
		if gd.Len() != d.Len() {
			s.tracef(depth, "gpurify (Lemma 17): %d -> %d facts", d.Len(), gd.Len())
		}
		// gd is purified too, so it is empty iff no embedding survives.
		if gd.Len() == 0 {
			s.tracef(depth, "no embedding survives gpurification: NOT certain")
			return false, nil
		}
		sat, err := simplify.IsSaturated(q)
		if err != nil {
			return false, err
		}
		if sat {
			return s.dissolveCase(q, gd, depth)
		}
		steps, err := simplify.Saturate(q)
		if err != nil || len(steps) == 0 {
			return false, fmt.Errorf("ptime: saturation of %s failed: %v", q, err)
		}
		nd, err := steps[0].TransformDB(gd)
		if err != nil {
			// The projection was inconsistent: the Lemma 11 database
			// construction does not cover this instance.
			return false, fmt.Errorf("%w: saturation step %s of %s: %v", ErrInvariant, steps[0].Name, q, err)
		}
		s.stats.Saturations++
		s.tracef(depth, "saturate (Lemma 11): %s", steps[0].Name)
		q, d = steps[0].Q, nd
	}
}

// lemma9 implements the unattacked-atom branch: q is certain iff some
// R-block matches F's key pattern and every fact of the block extends the
// valuation and leaves a certain residue.
func (s *solver) lemma9(q query.Query, f query.Atom, d *db.DB, depth int) (bool, error) {
	rest := q.Remove(f)
	for _, b := range candidateBlocks(d, f) {
		if len(b.Facts) == 0 {
			continue
		}
		theta := query.Valuation{}
		if !match.UnifyTerms(f.KeyArgs(), b.Facts[0].Key(), theta) {
			continue
		}
		allGood := true
		for _, fact := range b.Facts {
			if err := s.chk.Step(); err != nil {
				return false, err
			}
			s.stats.Branches++
			thetaPlus := theta.Clone()
			if !match.UnifyTerms(f.NonKeyArgs(), fact.NonKey(), thetaPlus) {
				allGood = false
				break
			}
			ok, err := s.solve(rest.Substitute(thetaPlus), d, depth+1)
			if err != nil {
				return false, err
			}
			if !ok {
				allGood = false
				break
			}
		}
		if allGood {
			return true, nil
		}
	}
	return false, nil
}

// candidateBlocks returns the blocks the Lemma 9 branch must try for
// atom f: when f's key is fully ground (the common case on instantiated
// residue queries) the single block is hash-probed in O(1); otherwise
// every block of the relation (a cached slice) is scanned.
func candidateBlocks(d *db.DB, f query.Atom) []db.Block {
	keyConsts := make([]query.Const, f.Rel.KeyLen)
	for i, t := range f.KeyArgs() {
		if !t.IsConst() {
			return d.BlocksOf(f.Rel.Name)
		}
		keyConsts[i] = t.Const()
	}
	b, ok := d.BlockByKey(f.Rel.Name, keyConsts)
	if !ok {
		return nil
	}
	return []db.Block{b}
}

// dissolveCase handles the saturated, all-mode-i-attacked regime: find a
// premier Markov cycle and dissolve it. The database is already
// gpurified by the caller.
func (s *solver) dissolveCase(q query.Query, gd *db.DB, depth int) (bool, error) {
	m, err := markov.Build(q)
	if err != nil {
		return false, err
	}
	g, err := attack.BuildGraph(q)
	if err != nil {
		return false, err
	}
	c := m.PremierCycle(g)
	if c == nil {
		// Lemma 15 guarantees a premier cycle in this regime; reaching
		// this point means the saturation diverged from the technical
		// report's construction on this query.
		return false, fmt.Errorf("%w: no premier Markov cycle in %s", ErrInvariant, q)
	}
	s.tracef(depth, "dissolve premier Markov cycle %v (Definition 5)", c)
	dd, err := dissolve.Dissolve(q, m, c)
	if err != nil {
		return false, err
	}
	if dd.QStar.InconsistencyCount() >= q.InconsistencyCount() {
		return false, fmt.Errorf("ptime: dissolution did not decrease incnt on %s", q)
	}
	nd, dst, err := dd.TransformDB(gd)
	if err != nil {
		return false, err
	}
	s.stats.Dissolutions++
	s.stats.TFacts += dst.TFacts
	s.tracef(depth, "encoded %d components, %d supported cycles, %d T-facts; recurse on %s",
		dst.Components, dst.KCycles, dst.TFacts, dd.QStar)
	return s.solve(dd.QStar, nd, depth+1)
}
