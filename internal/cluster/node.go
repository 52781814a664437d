package cluster

import (
	"context"
	"fmt"

	"cqa/internal/core"
	"cqa/internal/evalctx"
	"cqa/internal/faultinject"
	"cqa/internal/match"
	"cqa/internal/plancache"
	"cqa/internal/query"
	"cqa/internal/shard"
	"cqa/internal/store"
)

// Exec evaluates one shard request against a local store: the server
// side of the cluster tier, shared by the HTTP endpoint and the
// in-process loopback transport. The plan is compiled (or fetched) from
// the node's plan cache, the snapshot resolved from the node's store,
// and the work, dispatched by Kind, runs inline on the calling
// goroutine: the FO kinds walk the spans the snapshot's partition
// assigns to the requested shard, KindSingle runs the whole decision.
//
// Error contract: infrastructure failures (unknown database — a
// replication race, not a request defect — and injected node faults)
// satisfy Unavailable and are retryable on another replica; request defects come back as *RequestError and are
// permanent; context and budget errors pass through unchanged.
//
// The "cluster.node.exec" fault hook fires on entry (before any work),
// so chaos tests can take a node down at the request boundary.
func Exec(ctx context.Context, cache *plancache.Cache, st *store.Store, req *EvalRequest) (*EvalResponse, error) {
	if req.Shards < 1 || req.Shard < 0 || req.Shard >= req.Shards {
		return nil, &RequestError{Code: "bad_request",
			Msg: fmt.Sprintf("shard %d out of range for width %d", req.Shard, req.Shards)}
	}
	if err := faultinject.Fire("cluster.node.exec"); err != nil {
		return nil, fmt.Errorf("%w: injected node fault: %w", ErrUnavailable, err)
	}
	plan, _, err := cache.GetOrCompile(req.Query, nil)
	if err != nil {
		return nil, &RequestError{Code: "bad_query", Msg: err.Error()}
	}
	engine, err := core.ParseEngine(req.Engine)
	if err != nil {
		return nil, &RequestError{Code: "bad_engine", Msg: err.Error()}
	}
	snap, ok := st.Get(req.DB)
	if !ok {
		return nil, fmt.Errorf("%w: unknown database %q", ErrUnavailable, req.DB)
	}
	if err := core.CheckSignatures(plan.Query, snap.DB); err != nil {
		return nil, &RequestError{Code: "signature_mismatch", Msg: err.Error()}
	}
	opts := core.Options{
		Engine:      engine,
		MaxSteps:    req.MaxSteps,
		MemoCap:     req.MemoCap,
		Approximate: req.Approximate,
		Samples:     req.Samples,
	}
	ix := snap.Index()
	chk := evalctx.New(ctx, evalctx.Limits{MaxSteps: req.MaxSteps, MemoCap: req.MemoCap})
	resp := &EvalResponse{}
	switch req.Kind {
	case KindBool:
		if !plan.ScatterableFO(opts) {
			return nil, &RequestError{Code: "bad_request",
				Msg: fmt.Sprintf("plan for %q is not FO-scatterable", req.Query)}
		}
		spans := snap.Partition(req.Shards).View(req.Shard).SpansOf(plan.TopRelation())
		resp.Certain, err = plan.Elim.CertainOverSpans(ix, spans, chk)
	case KindSingle:
		var res core.Result
		res, err = plan.CertainChecked(ctx, ix, opts, chk)
		resp.Certain = res.Certain
		resp.Approximate = res.Approximate
		resp.Fraction = res.Fraction
	case KindSweep:
		if err := checkFree(plan, req.Free); err != nil {
			return nil, err
		}
		if !plan.ScatterableFO(opts) || !plan.Elim.SweepableFree(req.Free) {
			return nil, &RequestError{Code: "bad_request",
				Msg: fmt.Sprintf("plan for %q is not sweepable over %v", req.Query, req.Free)}
		}
		spans := snap.Partition(req.Shards).View(req.Shard).SpansOf(plan.TopRelation())
		resp.Answers, err = plan.Elim.SweepSpans(ix, spans, req.Free, nil, chk)
	case KindCheck:
		if err := checkFree(plan, req.Free); err != nil {
			return nil, err
		}
		resp.Answers, err = checkOwned(plan, ix, req, opts, chk)
	default:
		return nil, &RequestError{Code: "bad_request", Msg: fmt.Sprintf("unknown kind %q", req.Kind)}
	}
	resp.Steps = chk.Steps()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// checkOwned is the KindCheck body: enumerate every candidate answer and
// check, inline on the request goroutine, the ones whose row hashes to
// this shard.
func checkOwned(plan *core.Plan, ix *match.Index, req *EvalRequest, opts core.Options, chk *evalctx.Checker) (query.Answers, error) {
	candidates, err := plan.EnumerateCandidates(ix, req.Free, opts, chk)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, row := range candidates {
		if shard.Of(query.Binding(req.Free, row).Key(), req.Shards) == req.Shard {
			copy(candidates[k], row)
			k++
		}
	}
	opts.Workers = 1
	return plan.CheckCandidates(ix, req.Free, candidates[:k], opts, chk)
}

// checkFree runs core.CheckFree and reports a violation as the
// permanent bad_request defect it is, at the router and on a node.
func checkFree(plan *core.Plan, free []query.Var) error {
	if err := core.CheckFree(plan.Query, free); err != nil {
		return &RequestError{Code: "bad_request", Msg: err.Error()}
	}
	return nil
}
