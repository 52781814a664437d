// Package counting computes the number of repairs that satisfy a
// self-join-free conjunctive query — the quantity behind the counting
// variant #CERTAINTY(q) studied by Maslowski and Wijsen (cited as [12]
// by the reproduced paper). The decision problem reduces to it:
// CERTAINTY(q) holds iff every repair satisfies q.
//
// The counter factorizes the instance: blocks interact only through the
// embeddings of q, so the "constraint graph" (blocks joined by a shared
// embedding) splits into independent components whose falsifying
// assignment counts multiply. A component is counted exactly by the
// coNP engine's exclusion DPLL (conp.Search), run to the end instead of
// to its first falsifying leaf: its branches are disjoint, so summing
// the leaves' sizes is exact. A component whose assignment space
// exceeds the cap (or the caller's remaining step budget) is estimated
// by uniform Monte Carlo repair sampling instead — the counter is exact
// where the space fits and an anytime estimator with a confidence
// interval beyond it (the problem is #P-hard in general). Exact-only
// callers set Options.Exact and get ErrComponentTooLarge instead of an
// estimate.
//
// The repair products (all blocks, the constrained blocks, and the
// components' falsifying counts) are taken in a machine word and
// flushed into one reused big.Int only when the next factor would
// overflow it, so a count over thousands of small blocks does a few
// dozen big.Int multiplications, not one per block.
package counting

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"

	"cqa/internal/conp"
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/faultinject"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/trace"
)

// DefaultComponentLimit caps the assignment space of a component counted
// exactly when Options.ComponentLimit is unset. It keeps every exact
// count within an int64.
const DefaultComponentLimit = 1 << 22

// DefaultSamples is the Monte Carlo sample count drawn per oversized
// component when Options.Samples is unset. 4096 samples put the 95%
// half-width at ~1.5 points for a central fraction and 3/4096 ≈ 0.07%
// under the rule of three at the extremes.
const DefaultSamples = 4096

// ErrComponentTooLarge reports a constraint component whose assignment
// space exceeds the component limit or the remaining step budget while
// Options.Exact forbids estimation. The message names the bound.
var ErrComponentTooLarge = errors.New("counting: component assignment space exceeds the exact count bound")

// Options tunes one Count call.
type Options struct {
	// ComponentLimit caps the assignment space of a constraint component
	// counted exactly; a component whose space exceeds it (or the
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
	Exact      bool     // every component counted exactly
}

// SatisfyingRepairs counts the repairs of d satisfying q exactly,
// refusing oversized components — the historical entry point, with no
// budget and no estimation. Engine callers use Count.
func SatisfyingRepairs(q query.Query, d *db.DB) (Result, error) {
	return Count(q, match.NewIndex(d), nil, Options{Exact: true})
}

// Count counts the repairs of ix.DB satisfying q under the checker's
// cancellation and step budget. It polls chk per enumerated embedding
// candidate, per search node, and per Monte Carlo sample; a nil checker
// enforces nothing.
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

	prod := newProduct()
	for _, name := range ix.DB.RelationOrder() {
		for _, b := range ix.DB.BlocksOf(name) {
			prod.mul(uint64(len(b.Facts)))
		}
	}
	total := prod.value()
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
	// Number the components in the order of their root blocks, then
	// list each component's blocks and constraints as runs of two flat
	// arrays, both ascending.
	compOf := make([]int32, len(blocks))
	ncomp := 0
	for b := range blocks {
		if find(int32(b)) == int32(b) {
			compOf[b] = int32(ncomp)
			ncomp++
		}
	}
	for b := range blocks {
		compOf[b] = compOf[find(int32(b))]
	}
	compBlocks, blockAt := runs(len(blocks), ncomp, func(b int) int32 { return compOf[b] })
	compCons, consAt := runs(len(constraints), ncomp, func(ci int) int32 { return compOf[constraints[ci][0].Block] })

	// Falsifying assignments factorize over components. Exact components
	// contribute a point falsifying ratio; sampled ones an interval, and
	// the product of intervals bounds the overall falsifying fraction.
	falsifying := newProduct()
	fracLo, fracHi := 1.0, 1.0
	rng := rand.New(rand.NewSource(seed))
	var totalSamples, nodes int64
	search := conp.NewSearch(cs, chk)
	var sizes []int
	var sel []int32 // the sampler's choice per block ordinal
	for ci := 0; ci < ncomp; ci++ {
		bs := compBlocks[blockAt[ci]:blockAt[ci+1]:blockAt[ci+1]]
		cons := compCons[consAt[ci]:consAt[ci+1]:consAt[ci+1]]
		if err := faultinject.Fire("counting.component"); err != nil {
			return Result{}, fmt.Errorf("counting: component %d: %w", ci, err)
		}
		if err := chk.Check(); err != nil {
			return Result{}, err
		}
		res.Components++
		if forced(cs, cons) {
			// Some constraint is fully forced (every block it touches
			// has one fact): all assignments of this component satisfy
			// q, exactly, regardless of the component's size.
			fracLo, fracHi = 0, 0
			falsifying.mul(0)
			continue
		}
		sizes = sizes[:0]
		for _, b := range bs {
			sizes = append(sizes, len(blocks[b].Facts))
		}
		space, fits := componentSpace(sizes, limit)
		rem, budgeted := chk.Remaining()
		overBudget := fits && budgeted && space > rem
		if fits && !overBudget {
			fals, st, err := search.Count(cons, bs)
			if err != nil {
				return Result{}, err
			}
			nodes += int64(st.Decisions)
			falsifying.mul(uint64(fals))
			r := float64(fals) / float64(space)
			fracLo *= r
			fracHi *= r
			continue
		}
		if opts.Exact && overBudget {
			return Result{}, fmt.Errorf("%w (component %d, %d blocks: space %d over the %d steps left in the budget)",
				ErrComponentTooLarge, ci, len(bs), space, rem)
		}
		if opts.Exact {
			return Result{}, fmt.Errorf("%w (component %d, %d blocks over limit %d)",
				ErrComponentTooLarge, ci, len(bs), limit)
		}
		if sel == nil {
			sel = make([]int32, len(blocks))
		}
		lo, hi, err := sampleComponent(cs, bs, cons, sel, samples, rng, chk)
		if err != nil {
			return Result{}, err
		}
		totalSamples += int64(samples)
		res.Sampled++
		res.Exact = false
		fracLo *= lo
		fracHi *= hi
	}
	tr.Add(trace.StageCount, trace.CtrNodes, nodes)
	tr.Add(trace.StageCount, trace.CtrComponents, int64(res.Components))
	tr.Add(trace.StageCount, trace.CtrSamples, totalSamples)

	// An exactly-counted component with zero falsifying assignments zeroes
	// the falsifying product outright, so the overall count is exact even
	// when other components had to be sampled: every repair satisfies q.
	// (Sampled still records the estimation effort that turned out moot.)
	if !res.Exact && falsifying.zero() {
		res.Exact = true
	}
	if res.Exact {
		// Unconstrained blocks scale the falsifying count to the full
		// database: their product is Total over the constrained blocks'
		// product. They multiply Total identically, so the fraction is
		// untouched.
		prod = newProduct()
		for _, b := range blocks {
			prod.mul(uint64(len(b.Facts)))
		}
		constrained := prod.value()
		fals := falsifying.value()
		fals.Mul(fals, constrained.Quo(total, constrained))
		res.Satisfying = fals.Sub(total, fals)
		res.Fraction = exactFraction(res.Satisfying, total)
		return res, nil
	}
	res.Fraction = 1 - (fracLo+fracHi)/2
	res.Confidence = (fracHi - fracLo) / 2
	return res, nil
}

// product multiplies non-negative factors in a machine word, and
// flushes the word into one reused big.Int only when the next factor
// would overflow it (bits.Mul64), so a product of small block sizes
// costs one big.Int multiplication per 64 bits of result instead of one
// per factor.
type product struct {
	word uint64  // the factors not yet flushed
	acc  big.Int // the flushed factors
	tmp  big.Int // the word, as a big.Int operand
}

// newProduct returns the empty product, 1.
func newProduct() *product {
	p := &product{word: 1}
	p.acc.SetInt64(1)
	return p
}

// mul multiplies the product by x.
func (p *product) mul(x uint64) {
	if hi, lo := bits.Mul64(p.word, x); hi == 0 {
		p.word = lo
		return
	}
	p.flush()
	p.word = x
}

// flush multiplies the word into the accumulator.
func (p *product) flush() {
	if p.word != 1 {
		p.acc.Mul(&p.acc, p.tmp.SetUint64(p.word))
		p.word = 1
	}
}

// zero reports whether the product is 0.
func (p *product) zero() bool { return p.word == 0 || p.acc.Sign() == 0 }

// value returns the product in a fresh big.Int.
func (p *product) value() *big.Int {
	p.flush()
	return new(big.Int).Set(&p.acc)
}

// runs lists 0..n-1 grouped by key, which lies in [0, k), as runs of
// one flat array: group g is flat[at[g]:at[g+1]], in ascending order.
func runs(n, k int, key func(int) int32) (flat, at []int32) {
	// Count each group, sum the counts so at[g] ends g's run, then fill
	// the runs back to front, leaving at[g] at their starts.
	at = make([]int32, k+1)
	for i := 0; i < n; i++ {
		at[key(i)]++
	}
	for g := 1; g <= k; g++ {
		at[g] += at[g-1]
	}
	flat = make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		g := key(i)
		at[g]--
		flat[at[g]] = int32(i)
	}
	return flat, at
}

// forced reports whether some constraint in cons touches only
// single-fact blocks, so that every repair keeps it.
func forced(cs *match.Constraints, cons []int32) bool {
next:
	for _, ci := range cons {
		for _, r := range cs.Cons[ci] {
			if len(cs.Blocks[r.Block].Facts) > 1 {
				continue next
			}
		}
		return true
	}
	return false
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

// sampleComponent draws n uniform assignments of the component's free
// blocks — each is a uniform repair restricted to the component — and
// returns a 95% confidence interval [lo, hi] on its falsifying fraction:
// a normal approximation in the interior, the rule of three at the
// boundary outcomes where the variance estimate degenerates. sel holds
// a choice per block ordinal of cs and is overwritten on the
// component's blocks only. A single-fact block is never drawn: it keeps
// slot 0, which every ref into it names.
func sampleComponent(cs *match.Constraints, blocks, cons, sel []int32, n int, rng *rand.Rand, chk *evalctx.Checker) (lo, hi float64, err error) {
	fals := 0
	for k := 0; k < n; k++ {
		if err := chk.Step(); err != nil {
			return 0, 0, err
		}
		for _, b := range blocks {
			if sz := len(cs.Blocks[b].Facts); sz > 1 {
				sel[b] = int32(rng.Intn(sz))
			}
		}
		satisfied := false
		for _, ci := range cons {
			all := true
			for _, fr := range cs.Cons[ci] {
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
