package core

import (
	"context"
	"sort"
	"sync"

	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/rewrite"
	"cqa/internal/shard"
)

// This file is the scatter-gather coordinator: how a Plan evaluates
// over a shard.Pool. The partition splits the top-level *work* — the
// blocks of the first elimination atom's relation for Boolean FO
// certainty, the candidate bindings for certain answers — while every
// shard task probes residues against the full shared snapshot index,
// which is what keeps the merge exact:
//
//   - Boolean FO: the Lemma 10 top level is an existential over the
//     relation's blocks, so the merge is an early-exit OR — true from
//     any shard is definitive, false needs every shard, and a failed
//     shard is an error, never a wrong boolean.
//   - Certain answers: each candidate is owned by exactly one shard, so
//     the merge is a plain set union; any shard error fails the request
//     (a partial union would silently drop answers).
//   - Non-partitionable engines (ptime / conp / naive): the whole
//     evaluation runs as a single task on the shard owning the plan
//     key, so budgets, health, hedging, and fault injection apply
//     uniformly across engines.

// shardedPool resolves the pool of one evaluation: the caller-supplied
// cached pool, an ephemeral one built from Options.Shards (torn down by
// the returned cleanup), or nil for the monolithic path.
func shardedPool(ix *match.Index, opts Options) (*shard.Pool, func()) {
	if opts.ShardPool != nil {
		return opts.ShardPool, func() {}
	}
	if opts.Shards > 1 {
		p := shard.NewPool(ix.DB, opts.Shards, shard.PoolOptions{})
		return p, p.Close
	}
	return nil, nil
}

// unsharded strips the shard selection for evaluations nested inside a
// shard task (the single-task engines), which must not recurse into the
// scatter path.
func unsharded(opts Options) Options {
	opts.Shards = 0
	opts.ShardPool = nil
	return opts
}

// ScatterableFO reports whether this plan's Boolean certainty can be
// scattered as block-local FO checks under the selected engine: the
// Lemma 10 rewriting's top level is an existential over one relation's
// blocks, so any key-hash partition of those blocks decides the query
// as an OR of per-partition verdicts. Every other engine/plan shape
// evaluates as a single (routable but indivisible) task.
func (p *Plan) ScatterableFO(opts Options) bool {
	return p.Engine(opts) == EngineFO && !p.HasCycle && p.Elim != nil
}

// TopRelation returns the relation whose blocks the FO scatter
// partitions — the first atom of the compiled elimination order. Only
// meaningful when ScatterableFO holds.
func (p *Plan) TopRelation() string {
	return p.Elim.Order()[0].Rel.Name
}

// BoolShardTask returns the per-shard Boolean certainty task of an FO
// scatter: decide the top-level existential over the shard's span
// partition of the top relation, probing residues against the full
// snapshot index. Both the in-process pool coordinator and the remote
// cluster node run exactly this task, so the two tiers cannot drift.
func (p *Plan) BoolShardTask(ix *match.Index) shard.Task[bool] {
	topRel := p.TopRelation()
	return func(v *shard.View, schk *evalctx.Checker) (bool, error) {
		return p.Elim.CertainOverSpans(ix, v.SpansOf(topRel), schk)
	}
}

// SweepShardTask returns the per-shard batched answers task of a
// sweepable FO plan (Eliminator.SweepableFree): derive and decide the
// candidates of the shard's span partition in one columnar pass.
// Answers come back unsorted; the merge sorts the union by binding key.
func (p *Plan) SweepShardTask(ix *match.Index, free []query.Var) shard.Task[[]query.Valuation] {
	topRel := p.TopRelation()
	return func(v *shard.View, schk *evalctx.Checker) ([]query.Valuation, error) {
		return p.Elim.SweepSpans(ix, v.SpansOf(topRel), free, schk)
	}
}

// certainSharded is the Boolean scatter: FO plans partition the top
// level across the shards; every other engine dispatches the whole
// evaluation to the plan key's owner shard (preserving the Approximate
// degradation of a budget-exhausted coNP evaluation, which happens
// inside the task).
func (p *Plan) certainSharded(ctx context.Context, ix *match.Index, opts Options, chk *evalctx.Checker, pool *shard.Pool) (Result, error) {
	if err := chk.Check(); err != nil {
		return Result{}, err
	}
	engine := p.Engine(opts)
	if p.ScatterableFO(opts) {
		certain, err := p.scatterBool(ctx, pool, chk, p.BoolShardTask(ix))
		if err != nil {
			return Result{}, err
		}
		return Result{Certain: certain, Class: p.Class, Engine: engine}, nil
	}
	return shard.Do(ctx, pool, shard.Of(p.key, pool.N()), chk, p.CertainSingleTask(ctx, ix, opts))
}

// CertainSingleTask returns the whole-evaluation task of a plan that
// cannot be scattered (ptime / conp / naive / cyclic-FO): the complete
// certainty decision, including the Approximate degradation of a
// budget-exhausted coNP search, runs as one unit on whichever shard —
// local pool worker or remote node — owns the plan key.
func (p *Plan) CertainSingleTask(ctx context.Context, ix *match.Index, opts Options) shard.Task[Result] {
	inner := unsharded(opts)
	return func(v *shard.View, schk *evalctx.Checker) (Result, error) {
		return p.certainChecked(ctx, ix, inner, schk)
	}
}

// scatterBool fans the task across every shard and merges with the
// early-exit existential semantics: the first true cancels the
// straggler shards and wins; false requires all shards to report false;
// otherwise the lowest-numbered shard's error is returned (deterministic
// under deterministic faults). The per-shard executions poll a context
// derived from ctx, so cancellation of the scatter never outlives this
// call's decision.
func (p *Plan) scatterBool(ctx context.Context, pool *shard.Pool, chk *evalctx.Checker, task shard.Task[bool]) (bool, error) {
	n := pool.N()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		id      int
		certain bool
		err     error
	}
	ch := make(chan res, n)
	for id := 0; id < n; id++ {
		go func(id int) {
			ok, err := shard.Do(cctx, pool, id, chk, task)
			ch <- res{id: id, certain: ok, err: err}
		}(id)
	}
	var firstErr error
	firstID := n
	for i := 0; i < n; i++ {
		r := <-ch
		if r.err == nil && r.certain {
			cancel()
			return true, nil
		}
		if r.err != nil && r.id < firstID {
			firstID, firstErr = r.id, r.err
		}
	}
	return false, firstErr
}

// certainAnswersSharded is the answers scatter. Two modes:
//
//   - Block sweep (fast FO plans whose free variables read off the top
//     atom's key, see Eliminator.SweepableFree): each shard derives the
//     candidates from its own span partition and decides them in one
//     pass — no join enumeration, no per-candidate index probe, and a
//     memo shared across the shard's whole sweep. The union is sorted
//     into the canonical (binding-key) order.
//   - Candidate partition (everything else): candidates are enumerated
//     once on the coordinator exactly as in the monolithic path, each
//     shard checks the candidates it owns (hash of the binding key) and
//     reports the certain ones by index, and the union preserves the
//     monolithic enumeration order.
func (p *Plan) certainAnswersSharded(ctx context.Context, free []query.Var, ix *match.Index, opts Options, chk *evalctx.Checker, pool *shard.Pool) ([]query.Valuation, error) {
	n := pool.N()
	fastFO := p.ScatterableFO(opts)
	if fastFO && p.Elim.SweepableFree(free) {
		task := p.SweepShardTask(ix, free)
		parts := make([][]query.Valuation, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				parts[id], errs[id] = shard.Do(ctx, pool, id, chk, task)
			}(id)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		total := 0
		for _, part := range parts {
			total += len(part)
		}
		out := make([]query.Valuation, 0, total)
		for _, part := range parts {
			out = append(out, part...)
		}
		rewrite.SortValuationsByKey(out)
		return out, nil
	}

	candidates, err := p.EnumerateCandidates(ix, free, opts, chk)
	if err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, nil
	}
	groups := make([][]int, n)
	for i, proj := range candidates {
		id := shard.Of(proj.Key(), n)
		groups[id] = append(groups[id], i)
	}
	inner := unsharded(opts)
	results := make([][]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		if len(groups[id]) == 0 {
			continue
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// The task builds its own result slice (hedging may run it
			// twice concurrently; only the winner's slice is used).
			results[id], errs[id] = shard.Do(ctx, pool, id, chk,
				func(v *shard.View, schk *evalctx.Checker) ([]int, error) {
					var mine []int
					for _, i := range groups[id] {
						if err := schk.Err(); err != nil {
							return nil, err
						}
						ok, err := p.CheckCandidate(ctx, ix, inner, candidates[i], schk)
						if err != nil {
							return nil, err
						}
						if ok {
							mine = append(mine, i)
						}
					}
					return mine, nil
				})
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var idx []int
	for _, part := range results {
		idx = append(idx, part...)
	}
	sort.Ints(idx)
	out := make([]query.Valuation, 0, len(idx))
	for _, i := range idx {
		out = append(out, candidates[i])
	}
	return out, nil
}
