// Package counting computes the number of repairs that satisfy a
// self-join-free conjunctive query — the quantity behind the counting
// variant #CERTAINTY(q) studied by Maslowski and Wijsen (cited as [12]
// by the reproduced paper). The decision problem reduces to it:
// CERTAINTY(q) holds iff every repair satisfies q.
//
// The counter factorizes the instance: blocks interact only through the
// embeddings of q, so the "constraint graph" (blocks joined by a shared
// embedding) splits into independent components whose falsifying
// assignment counts multiply. Within a component it enumerates
// exhaustively with constraint-indexed pruning over slot arrays; the
// per-component state space is capped, and a component that exceeds the
// cap (or the caller's remaining step budget) is estimated by uniform
// Monte Carlo repair sampling instead — the counter is exact where the
// space fits and an anytime estimator with a confidence interval beyond
// it (the problem is #P-hard in general). Exact-only callers set
// Options.Exact and get ErrComponentTooLarge instead of an estimate.
package counting

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/faultinject"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/trace"
)

// DefaultComponentLimit caps the assignments enumerated exactly per
// component when Options.ComponentLimit is unset.
const DefaultComponentLimit = 1 << 22

// DefaultSamples is the Monte Carlo sample count drawn per oversized
// component when Options.Samples is unset. 4096 samples put the 95%
// half-width at ~1.5 points for a central fraction and 3/4096 ≈ 0.07%
// under the rule of three at the extremes.
const DefaultSamples = 4096

// ErrComponentTooLarge reports a constraint component whose exact
// assignment space exceeds the enumeration bound while Options.Exact
// forbids estimation.
var ErrComponentTooLarge = errors.New("counting: component assignment space exceeds the exact enumeration bound")

// Options tunes one Count call.
type Options struct {
	// ComponentLimit caps the assignments enumerated exactly within one
	// constraint component; a component whose space exceeds it (or the
	// checker's remaining step budget) is estimated instead. <= 0 selects
	// DefaultComponentLimit.
	ComponentLimit int64
	// Samples is the Monte Carlo sample count per estimated component.
	// <= 0 selects DefaultSamples.
	Samples int
	// Exact turns an oversized component into an ErrComponentTooLarge
	// error instead of a sampled estimate.
	Exact bool
	// Seed perturbs the deterministic sampling RNG. 0 selects 1, so the
	// default is reproducible run to run.
	Seed int64
}

// Result reports the counts. Total is always exact; Satisfying is exact
// (and non-nil) iff Exact is set, otherwise Fraction carries the anytime
// estimate with Confidence as its 95% half-width.
type Result struct {
	Satisfying *big.Int // repairs where q holds; nil when !Exact
	Total      *big.Int // all repairs (always exact)
	Components int      // independent constraint components
	Sampled    int      // components estimated by Monte Carlo sampling
	Fraction   float64  // Satisfying/Total, exact ratio or estimate midpoint
	Confidence float64  // 95% confidence half-width on Fraction; 0 when Exact
	Exact      bool     // every component enumerated exactly
}

// SatisfyingRepairs counts the repairs of d satisfying q exactly,
// refusing oversized components — the historical entry point, with no
// budget and no estimation. Engine callers use Count.
func SatisfyingRepairs(q query.Query, d *db.DB) (Result, error) {
	return Count(q, match.NewIndex(d), nil, Options{Exact: true})
}

// Count counts the repairs of ix.DB satisfying q under the checker's
// cancellation and step budget. It polls chk per enumerated embedding
// candidate, per exact assignment slot, and per Monte Carlo sample; a
// nil checker enforces nothing.
func Count(q query.Query, ix *match.Index, chk *evalctx.Checker, opts Options) (Result, error) {
	tr := chk.Tracer()
	sp := tr.Begin(trace.StageCount)
	defer sp.End()
	if err := chk.Check(); err != nil {
		return Result{}, err
	}
	limit := opts.ComponentLimit
	if limit <= 0 {
		limit = DefaultComponentLimit
	}
	samples := opts.Samples
	if samples <= 0 {
		samples = DefaultSamples
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}

	total := big.NewInt(1)
	for _, b := range ix.DB.Blocks() {
		total.Mul(total, big.NewInt(int64(len(b.Facts))))
	}
	res := Result{Total: total, Exact: true}
	if q.Empty() {
		res.Satisfying = new(big.Int).Set(total)
		res.Fraction = 1
		return res, nil
	}

	// Each consistent embedding of q is a constraint: a repair keeping
	// all of its refs satisfies q. Only constrained blocks enter the
	// component machinery; all other blocks contribute equal factors to
	// both counts.
	cs, err := ix.Constraints(q, chk)
	if err != nil {
		return Result{}, err
	}
	blocks, constraints := cs.Blocks, cs.Cons
	tr.Add(trace.StageCount, trace.CtrMatches, int64(len(constraints)))

	// Union blocks sharing a constraint into components.
	parent := make([]int32, len(blocks))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, c := range constraints {
		r0 := find(c[0].Block)
		for _, fr := range c[1:] {
			parent[find(fr.Block)] = r0
			r0 = find(r0)
		}
	}
	compOf := make([]int32, len(blocks))
	var compBlocks [][]int32
	for b := range blocks {
		root := find(int32(b))
		if int(root) == b {
			compOf[b] = int32(len(compBlocks))
			compBlocks = append(compBlocks, nil)
		}
	}
	for b := range blocks {
		ci := compOf[find(int32(b))]
		compOf[b] = ci
		compBlocks[ci] = append(compBlocks[ci], int32(b))
	}
	compCons := make([][][]match.Ref, len(compBlocks))
	for _, c := range constraints {
		ci := compOf[c[0].Block]
		compCons[ci] = append(compCons[ci], c)
	}

	// Falsifying assignments factorize over components. Exact components
	// contribute a point falsifying ratio; sampled ones an interval, and
	// the product of intervals bounds the overall falsifying fraction.
	falsifying := big.NewInt(1)
	fracLo, fracHi := 1.0, 1.0
	rng := rand.New(rand.NewSource(seed))
	var totalSamples int64
	for ci := range compBlocks {
		if err := faultinject.Fire("counting.component"); err != nil {
			return Result{}, fmt.Errorf("counting: component %d: %w", ci, err)
		}
		if err := chk.Check(); err != nil {
			return Result{}, err
		}
		comp := localizeComponent(compBlocks[ci], blocks, compCons[ci])
		res.Components++
		if comp.alwaysSat {
			// Some constraint is fully forced (every block it touches
			// has one fact): all assignments of this component satisfy
			// q, exactly, regardless of the component's size.
			fracLo, fracHi = 0, 0
			falsifying.SetInt64(0)
			continue
		}
		space, fits := componentSpace(comp.sizes, limit)
		if fits {
			if rem, ok := chk.Remaining(); ok && space > rem {
				fits = false
			}
		}
		if fits {
			fals, err := countComponentExact(comp, chk)
			if err != nil {
				return Result{}, err
			}
			tr.Add(trace.StageCount, trace.CtrSteps, space)
			falsifying.Mul(falsifying, big.NewInt(fals))
			r := float64(fals) / float64(space)
			fracLo *= r
			fracHi *= r
			continue
		}
		if opts.Exact {
			return Result{}, fmt.Errorf("%w (component %d, %d blocks over limit %d)",
				ErrComponentTooLarge, ci, len(comp.sizes), limit)
		}
		lo, hi, err := sampleComponent(comp, samples, rng, chk)
		if err != nil {
			return Result{}, err
		}
		totalSamples += int64(samples)
		res.Sampled++
		res.Exact = false
		fracLo *= lo
		fracHi *= hi
	}
	tr.Add(trace.StageCount, trace.CtrComponents, int64(res.Components))
	tr.Add(trace.StageCount, trace.CtrSamples, totalSamples)

	// An exactly-counted component with zero falsifying assignments zeroes
	// the falsifying product outright, so the overall count is exact even
	// when other components had to be sampled: every repair satisfies q.
	// (Sampled still records the estimation effort that turned out moot.)
	if !res.Exact && falsifying.Sign() == 0 {
		res.Exact = true
	}
	if res.Exact {
		// Unconstrained blocks scale the falsifying count to the full
		// database: their product is Total over the constrained blocks'
		// product. They multiply Total identically, so the fraction is
		// untouched.
		constrained := big.NewInt(1)
		for _, b := range blocks {
			constrained.Mul(constrained, big.NewInt(int64(len(b.Facts))))
		}
		falsifying.Mul(falsifying, constrained.Quo(total, constrained))
		res.Satisfying = new(big.Int).Sub(total, falsifying)
		res.Fraction = exactFraction(res.Satisfying, total)
		return res, nil
	}
	res.Fraction = 1 - (fracLo+fracHi)/2
	res.Confidence = (fracHi - fracLo) / 2
	return res, nil
}

// component is one constraint component in local form: free blocks (two
// or more facts) indexed densely, forced single-fact blocks dropped, and
// each constraint reduced to refs into the free blocks and attached at
// the deepest free block it mentions for subtree pruning.
type component struct {
	sizes     []int           // fact count per free block
	byDepth   [][][]match.Ref // constraints attached at their deepest free block
	cons      [][]match.Ref   // all localized constraints (sampling)
	alwaysSat bool            // a constraint became empty: fully forced
}

// localizeComponent remaps a component's constraints from global block
// ordinals to dense free-block indices. Facts in single-fact blocks are
// always chosen in every repair, so their refs vanish; a constraint with
// no refs left is satisfied by every assignment.
func localizeComponent(bs []int32, blocks []db.Block, cons [][]match.Ref) *component {
	comp := &component{}
	local := map[int32]int32{}
	for _, b := range bs {
		if len(blocks[b].Facts) < 2 {
			continue
		}
		local[b] = int32(len(comp.sizes))
		comp.sizes = append(comp.sizes, len(blocks[b].Facts))
	}
	comp.byDepth = make([][][]match.Ref, len(comp.sizes))
	for _, c := range cons {
		lc := make([]match.Ref, 0, len(c))
		depth := int32(-1)
		for _, fr := range c {
			lb, ok := local[fr.Block]
			if !ok {
				continue // forced block: the ref always holds
			}
			lc = append(lc, match.Ref{Block: lb, Slot: fr.Slot})
			if lb > depth {
				depth = lb
			}
		}
		if len(lc) == 0 {
			comp.alwaysSat = true
			return comp
		}
		comp.cons = append(comp.cons, lc)
		comp.byDepth[depth] = append(comp.byDepth[depth], lc)
	}
	return comp
}

// componentSpace computes the product of the block sizes without ever
// overflowing: the pre-multiplication guard space > limit/n rejects any
// product that would exceed limit, so the running value stays <= limit
// and cannot wrap int64 (the historical post-multiplication check could,
// with a pathological block and a caller-raised limit).
func componentSpace(sizes []int, limit int64) (int64, bool) {
	space := int64(1)
	for _, n := range sizes {
		nn := int64(n)
		if nn <= 0 {
			return 0, false
		}
		if space > limit/nn {
			return 0, false
		}
		space *= nn
	}
	return space, true
}

// countComponentExact counts the falsifying assignments — one fact per
// free block such that no constraint keeps all its facts — over slot
// arrays. Constraints prune at the deepest block they mention: once one
// is fully chosen the whole subtree satisfies q and contributes nothing.
func countComponentExact(comp *component, chk *evalctx.Checker) (int64, error) {
	sel := make([]int32, len(comp.sizes))
	var count int64
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(comp.sizes) {
			count++
			return nil
		}
		for s := 0; s < comp.sizes[i]; s++ {
			if err := chk.Step(); err != nil {
				return err
			}
			sel[i] = int32(s)
			satisfied := false
			for _, c := range comp.byDepth[i] {
				all := true
				for _, fr := range c {
					if sel[fr.Block] != fr.Slot {
						all = false
						break
					}
				}
				if all {
					satisfied = true
					break
				}
			}
			if satisfied {
				continue
			}
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return 0, err
	}
	return count, nil
}

// sampleComponent draws n uniform assignments of the component's free
// blocks — each is a uniform repair restricted to the component — and
// returns a 95% confidence interval [lo, hi] on its falsifying fraction:
// a normal approximation in the interior, the rule of three at the
// boundary outcomes where the variance estimate degenerates.
func sampleComponent(comp *component, n int, rng *rand.Rand, chk *evalctx.Checker) (lo, hi float64, err error) {
	sel := make([]int32, len(comp.sizes))
	fals := 0
	for k := 0; k < n; k++ {
		if err := chk.Step(); err != nil {
			return 0, 0, err
		}
		for i, sz := range comp.sizes {
			sel[i] = int32(rng.Intn(sz))
		}
		satisfied := false
		for _, c := range comp.cons {
			all := true
			for _, fr := range c {
				if sel[fr.Block] != fr.Slot {
					all = false
					break
				}
			}
			if all {
				satisfied = true
				break
			}
		}
		if !satisfied {
			fals++
		}
	}
	r := float64(fals) / float64(n)
	var hw float64
	if fals == 0 || fals == n {
		hw = 3 / float64(n)
	} else {
		hw = 1.96 * math.Sqrt(r*(1-r)/float64(n))
	}
	lo = math.Max(0, r-hw)
	hi = math.Min(1, r+hw)
	return lo, hi, nil
}

// exactFraction returns sat/total as a float64 (0 on an empty space,
// which cannot arise from block products but keeps the ratio total).
func exactFraction(sat, total *big.Int) float64 {
	if total.Sign() == 0 {
		return 0
	}
	f := new(big.Float).Quo(new(big.Float).SetInt(sat), new(big.Float).SetInt(total))
	out, _ := f.Float64()
	return out
}
