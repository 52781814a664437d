package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cqa/internal/conp"
	"cqa/internal/counting"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/ptime"
	"cqa/internal/query"
	"cqa/internal/rewrite"
	"cqa/internal/trace"
)

// Plan is a compiled certainty plan: the per-query work of the
// trichotomy — attack-graph construction, classification, and (for FO
// queries) the compiled atom-elimination order — done exactly once.
// The per-query work is polynomial in |q| and independent of the data
// (Lemma 3), so a long-running process compiles each distinct query
// into a Plan and answers every data-side request from it, building no
// attack graph on the hot path.
//
// A Plan is immutable after Compile and safe for concurrent use.
type Plan struct {
	Classification
	// Elim is the compiled atom-elimination order the FO engine walks
	// (Lemma 6 fixes the unattacked-atom choice per query pattern); nil
	// unless Class == FO. The consistent first-order rewriting of
	// CERTAINTY(q) (Theorem 2 / Lemma 10) is rendered from it on
	// demand, by Elim.Rewriting().
	Elim *rewrite.Eliminator

	key string
}

// Compile classifies q and, when CERTAINTY(q) is in FO, compiles its
// elimination order. The query must be self-join-free. The attack graph
// is built exactly once.
func Compile(q query.Query) (*Plan, error) {
	return compile(q, nil)
}

// compile is Compile with the given variables of q as parameters: the
// plan is classified on q with placeholder constants for them, and its
// Eliminator binds them first. Such a plan decides the instantiations
// q[params ↦ c], whose class does not depend on c, and must be given a
// binding of every parameter.
func compile(q query.Query, params []query.Var) (*Plan, error) {
	cls, err := Classify(q.Substitute(query.Placeholders(query.NewVarSet(params...))))
	if err != nil {
		return nil, err
	}
	cls.Query = q
	p := &Plan{Classification: cls, key: q.Canonical()}
	if cls.Class == FO {
		if p.Elim, err = rewrite.CompileAcyclic(q, params...); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Key returns the normalized cache key of the plan's query: the
// canonical (atom-sorted) text produced by Normalize.
func (p *Plan) Key() string { return p.key }

// Engine resolves the engine the options select for this plan's class.
func (p *Plan) Engine(opts Options) Engine {
	if opts.Engine != EngineAuto {
		return opts.Engine
	}
	switch p.Class {
	case FO:
		return EngineFO
	case PTime:
		return EnginePTime
	default:
		return EngineCoNP
	}
}

// CertainIndexedCtx decides whether every repair of the indexed
// database satisfies the plan's query, reusing the compiled
// classification. On the serving hot path the index is cached per
// snapshot and shared across requests and goroutines. The engines poll
// ctx and the budgets of opts cooperatively and return ctx.Err()
// (or evalctx.ErrBudgetExceeded) instead of a wrong boolean when cut
// short. When the coNP engine exhausts its step budget and
// opts.Approximate is set, the decision degrades to the repair
// counter's satisfying-fraction estimate and the Result reports
// Approximate=true. A database storing a relation of
// the query under another signature is refused with a *SignatureError.
func (p *Plan) CertainIndexedCtx(ctx context.Context, ix *match.Index, opts Options) (Result, error) {
	if err := CheckSignatures(p.Query, ix.DB); err != nil {
		return Result{}, err
	}
	chk := evalctx.NewTraced(ctx, evalctx.Limits{MaxSteps: opts.MaxSteps, MemoCap: opts.MemoCap}, opts.Tracer)
	return p.CertainChecked(ctx, ix, opts, chk)
}

// CertainChecked is the single certainty decision under the caller's
// checker: the engine opts select, including the Approximate
// degradation of a budget-exhausted coNP search. A cluster node runs it
// for a routed decision that cannot be scattered (ptime / conp /
// cyclic plans), charging the work to the checker of the routed
// request. Unlike CertainIndexedCtx it does not check signatures; the
// caller has.
func (p *Plan) CertainChecked(ctx context.Context, ix *match.Index, opts Options, chk *evalctx.Checker) (Result, error) {
	// Fail fast on a context that is already cancelled — an evaluation
	// quick enough to finish inside one amortization window would
	// otherwise never notice.
	if err := chk.Check(); err != nil {
		return Result{}, err
	}
	engine := p.Engine(opts)
	certain, err := p.decide(ix, engine, nil, chk)
	if engine == EngineCoNP && errors.Is(err, evalctx.ErrBudgetExceeded) && opts.Approximate {
		return p.degradeToSampling(ctx, ix, opts)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{Certain: certain, Class: p.Class, Engine: engine}, nil
}

// decide is the plan's one certainty decision: the engine's verdict on
// the plan's query instantiated by binding (nil for the Boolean query).
// The FO engine seeds the eliminator with the binding; the other
// engines run on the substituted query, substituting only a non-empty
// binding.
func (p *Plan) decide(ix *match.Index, engine Engine, binding query.Valuation, chk *evalctx.Checker) (bool, error) {
	q := p.Query
	if len(binding) > 0 && engine != EngineFO {
		q = q.Substitute(binding)
	}
	var certain bool
	var err error
	switch engine {
	case EngineFO:
		if p.HasCycle {
			return false, fmt.Errorf("core: attack graph of %s is cyclic; CERTAINTY is not in FO", q.Substitute(binding))
		}
		certain, err = p.Elim.CertainChecked(ix, binding, chk)
	case EnginePTime:
		if p.HasStrongCycle {
			return false, fmt.Errorf("core: attack graph of %s has a strong cycle; CERTAINTY is coNP-complete", q)
		}
		certain, _, err = ptime.CertainNoStrongCycleChecked(q, ix.DB, chk)
	case EngineCoNP:
		certain, _, err = conp.CertainChecked(q, ix.DB, chk)
	default:
		err = fmt.Errorf("core: unknown engine %v", engine)
	}
	return certain, err
}

// degradeToSampling is the graceful-degradation path of a coNP-class
// evaluation whose exact search ran out of its step budget: the repair
// counter estimates the satisfying-repair fraction under the same
// context — the request deadline still applies — and the answer is
// reported as approximate. The counter's sampling is seeded, so the
// same request degrades to the same estimate, the one CountIndexedCtx
// reports for that query and database.
func (p *Plan) degradeToSampling(ctx context.Context, ix *match.Index, opts Options) (Result, error) {
	// A fresh checker: the step budget is spent, but the context of the
	// exhausted evaluation still bounds the estimate's wall-clock.
	chk := evalctx.NewTraced(ctx, evalctx.Limits{}, opts.Tracer)
	res, err := counting.Count(p.Query, ix, chk, counting.Options{Samples: opts.Samples})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Certain:     res.Fraction >= 1,
		Class:       p.Class,
		Engine:      EngineCoNP,
		Approximate: true,
		Fraction:    res.Fraction,
	}, nil
}

// CertainAnswersIndexedCtx lifts the plan to non-Boolean queries, as
// the paper notes is possible without fundamental changes: for the
// given free variables it returns every tuple of constants (drawn from
// embeddings into the indexed database) whose instantiated Boolean
// query is certain, as one answer table — rows in the order of free,
// sorted into the answer order (query.Answers.Sort) that every path,
// routed or local, returns.
//
// When the free variables are the key variables of the plan's top atom,
// one block sweep derives and decides every candidate. Otherwise the
// candidates are the projections of the query's embeddings
// (EnumerateCandidates), each decided by CheckCandidates.
//
// One checker, built from ctx and the budgets of opts, governs the
// whole request, and no goroutine outlives the call: on cancellation or
// budget exhaustion it returns the checker's error, never a partial
// answer set. A free variable outside the query or listed twice is
// refused with a *FreeVarError, a signature mismatch between the query
// and the stored data with a *SignatureError.
func (p *Plan) CertainAnswersIndexedCtx(ctx context.Context, free []query.Var, ix *match.Index, opts Options) (query.Answers, error) {
	if err := CheckFree(p.Query, free); err != nil {
		return nil, err
	}
	if err := CheckSignatures(p.Query, ix.DB); err != nil {
		return nil, err
	}
	chk := evalctx.NewTraced(ctx, evalctx.Limits{MaxSteps: opts.MaxSteps, MemoCap: opts.MemoCap}, opts.Tracer)
	if err := chk.Check(); err != nil {
		return nil, err
	}

	// The sweep shares one memo and evaluation state across all blocks:
	// no join enumeration, no per-candidate eliminator walk.
	if p.ScatterableFO(opts) && p.Elim.SweepableFree(free) {
		out, err := p.Elim.SweepSpans(ix, nil, free, nil, chk)
		if err != nil {
			return nil, err
		}
		out.Sort(free)
		return out, nil
	}

	candidates, err := p.EnumerateCandidates(ix, free, opts, chk)
	if err != nil {
		return nil, err
	}
	return p.CheckCandidates(ix, free, candidates, opts, chk)
}

// CheckCandidates decides each row of a candidate table and returns the
// certain ones, in place and in their order. One plan decides every
// row: an FO plan itself (Lemma 6: instantiation never adds attacks),
// any other plan the plan of its query with free as parameters,
// compiled once per call, which has an eliminator when the
// instantiations are in FO. The checks are independent, so
// Options.Workers goroutines share them, each on a Fork of chk (the
// caller's goroutine is one of them); a tripped checker stops each
// worker at its next candidate and the call returns the first error in
// row order, never a partial table. A cluster node runs it on the
// candidates its shard owns.
func (p *Plan) CheckCandidates(ix *match.Index, free []query.Var, cands query.Answers, opts Options, chk *evalctx.Checker) (query.Answers, error) {
	inst := p
	if p.Class != FO {
		var err error
		if inst, err = compile(p.Query, free); err != nil {
			return nil, err
		}
	}
	engine := inst.Engine(opts)
	certain := make([]bool, len(cands))
	errs := make([]error, len(cands))
	var next atomic.Int64
	run := func(wchk *evalctx.Checker) {
		for i := int(next.Add(1) - 1); i < len(cands); i = int(next.Add(1) - 1) {
			if errs[i] = wchk.Err(); errs[i] == nil {
				certain[i], errs[i] = inst.decide(ix, engine, query.Binding(free, cands[i]), wchk)
			}
		}
	}
	workers := poolSize(opts.Workers, len(cands))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wchk := chk.Fork() // before run(chk) below starts polling chk
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(wchk)
		}()
	}
	run(chk)
	wg.Wait()
	k := 0
	for i, row := range cands {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if certain[i] {
			copy(cands[k], row)
			k++
		}
	}
	return cands[:k], nil
}

// poolSize normalizes the requested worker count of the candidate-check
// pool: a request of <= 0 selects GOMAXPROCS, and the result is clamped
// to the number of jobs so no worker is ever idle by construction.
func poolSize(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// ScatterableFO reports whether this plan's Boolean certainty can be
// scattered as block-local FO checks under the selected engine: the
// Lemma 10 rewriting's top level is an existential over one relation's
// blocks, so any key-hash partition of those blocks decides the query
// as an OR of per-partition verdicts. Every other engine/plan shape
// evaluates as a single (routable but indivisible) decision.
func (p *Plan) ScatterableFO(opts Options) bool {
	return p.Engine(opts) == EngineFO && !p.HasCycle && p.Elim != nil
}

// TopRelation returns the relation whose blocks the FO scatter
// partitions — the first atom of the compiled elimination order. Only
// meaningful when ScatterableFO holds.
func (p *Plan) TopRelation() string {
	return p.Elim.Order()[0].Rel.Name
}

// EnumerateCandidates collects the candidate answers: the projections
// of the embeddings of the plan's query into the database onto free, as
// one answer table sorted and deduplicated. Any certain answer must be
// one of these (every repair embeds the instantiated query into d).
// Exported because a cluster node enumerates the same candidates
// locally and checks only the ones its shard owns.
func (p *Plan) EnumerateCandidates(ix *match.Index, free []query.Var, opts Options, chk *evalctx.Checker) (query.Answers, error) {
	var tab query.Answers
	sp := opts.Tracer.Begin(trace.StageMatch)
	ix.MatchChecked(p.Query, query.Valuation{}, chk, func(m query.Valuation) bool {
		var row []query.Const
		tab, row = tab.Add(len(free))
		for j, v := range free {
			row[j] = m[v]
		}
		return true
	})
	tab.Sort(free)
	tab = slices.CompactFunc(tab, slices.Equal)
	sp.End()
	opts.Tracer.Add(trace.StageMatch, trace.CtrMatches, int64(len(tab)))
	if err := chk.Err(); err != nil {
		return nil, err
	}
	return tab, nil
}

// Normalize parses a query in the textual syntax and returns it in
// canonical form together with its canonical key: the atom-sorted text
// that the plan cache and the CLIs share, so that textual variants of
// the same query (whitespace, atom order) map to the same plan.
func Normalize(s string) (query.Query, string, error) {
	q, err := query.Parse(s)
	if err != nil {
		return query.Query{}, "", err
	}
	key := q.Canonical()
	if nq, err := query.Parse(key); err == nil {
		return nq, key, nil
	}
	// Canonical text always re-parses; this fallback keeps Normalize
	// total even if a future syntax change breaks the round trip.
	return q, key, nil
}
