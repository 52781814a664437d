package server

import (
	"errors"
	"net/http"
	"time"

	"cqa/internal/cluster"
	"cqa/internal/core"
	"cqa/internal/query"
)

// This file is the serving layer of the remote shard tier: the node
// side (POST /v1/shard/eval answers per-shard work against the local
// store) and the routing side (stored-database certain/answers requests
// fan out through the cluster.Router instead of evaluating locally).
// Both ends speak the existing failure taxonomy — a routed request that
// cannot conclude exactly either degrades explicitly (X-CQA-Degraded:
// partial-shards, approximate: true) or fails closed with 503
// shard_unavailable.

// Router exposes the cluster router (nil when clustering is off); used
// by metrics and tests.
func (s *Server) Router() *cluster.Router { return s.router }

// handleShardEval answers one per-shard evaluation request from a
// cluster router. The body is the cluster wire request; the work runs
// through cluster.Exec against this instance's store and plan cache —
// the same admission gate, panic recovery, and metrics as every other
// evaluating endpoint apply via instrument.
func (s *Server) handleShardEval(w http.ResponseWriter, r *http.Request) {
	var req cluster.EvalRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel := s.evalContext(r, 0)
	defer cancel()
	resp, err := cluster.Exec(ctx, s.cache, s.store, &req)
	if err != nil {
		s.shardEvalError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// shardEvalError maps a node-side evaluation error onto the wire
// status contract of cluster.HTTPTransport: request defects are 4xx
// (permanent at the router), infrastructure failures are 503 with
// Retry-After (retryable on another replica), and context/budget
// errors keep their established statuses from evalError.
func (s *Server) shardEvalError(w http.ResponseWriter, err error) {
	var reqErr *cluster.RequestError
	switch {
	case errors.As(err, &reqErr):
		httpErrorCode(w, http.StatusBadRequest, reqErr.Code, "%v", reqErr)
	case cluster.Unavailable(err):
		w.Header().Set("Retry-After", "1")
		httpErrorCode(w, http.StatusServiceUnavailable, "shard_unavailable", "%v", err)
	default:
		s.evalError(w, err)
	}
}

// resolveClusterRef validates a routed request's database against the
// local replica: the routing instance holds the data too (uploads are
// replicated), so existence and schema defects are diagnosed here with
// the same 404/400 semantics as local evaluation, without building any
// local evaluation index.
func (s *Server) resolveClusterRef(w http.ResponseWriter, req certainRequest, plan *core.Plan) (*dbRef, bool) {
	snap, ok := s.store.Get(req.DB)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown database %q", req.DB)
		return nil, false
	}
	if err := core.CheckSignatures(plan.Query, snap.DB); err != nil {
		s.evalError(w, err)
		return nil, false
	}
	return &dbRef{Name: snap.Name, Version: snap.Version}, true
}

// certainViaCluster routes a certain request through the cluster
// router. failedShards > 0 means the router concluded from a partial
// scatter (every survivor false, the rest unreachable after retries):
// the response is explicitly degraded with X-CQA-Degraded:
// partial-shards and approximate: true — never a silently weaker
// boolean.
func (s *Server) certainViaCluster(w http.ResponseWriter, r *http.Request, req certainRequest, plan *core.Plan, hit bool, start time.Time, opts core.Options) {
	ref, ok := s.resolveClusterRef(w, req, plan)
	if !ok {
		return
	}
	ctx, cancel := s.evalContext(r, req.TimeoutMs)
	defer cancel()
	res, failedShards, err := s.router.Certain(ctx, plan, req.DB, opts)
	elapsed := time.Since(start)
	entry := slowEntry{
		Time:     start.UTC().Format(time.RFC3339Nano),
		Endpoint: "certain",
		Query:    plan.Query.String(),
		Class:    classLabel(plan.Class),
		DB:       ref.Name,
		dur:      elapsed,
	}
	if err != nil {
		entry.Error = err.Error()
		s.observeEval(entry)
		s.evalError(w, err)
		return
	}
	entry.Engine = res.Engine.String()
	s.observeEval(entry)
	resp := certainResponse{
		Query:   plan.Query.String(),
		Certain: res.Certain,
		Class:   res.Class.String(),
		Engine:  res.Engine.String(),
		Cached:  hit,
		DB:      ref,
	}
	if res.Approximate {
		s.metrics.degraded.Add(1)
		frac := res.Fraction
		resp.Approximate = true
		resp.Fraction = &frac
		if failedShards > 0 {
			w.Header().Set("X-CQA-Degraded", "partial-shards")
		} else {
			w.Header().Set("X-CQA-Degraded", "sampling")
		}
	}
	w.Header().Set("X-CQA-Engine", res.Engine.String())
	writeJSON(w, http.StatusOK, resp)
}

// answersViaCluster routes an answers request through the cluster
// router. The union merge fails closed — any shard that stays
// unreachable after retries surfaces as 503 shard_unavailable via
// evalError; there is no degraded answer set.
func (s *Server) answersViaCluster(w http.ResponseWriter, r *http.Request, req certainRequest, plan *core.Plan, hit bool, start time.Time, opts core.Options) {
	ref, ok := s.resolveClusterRef(w, req, plan)
	if !ok {
		return
	}
	free := make([]query.Var, len(req.Free))
	for i, name := range req.Free {
		free[i] = query.Var(name)
	}
	ctx, cancel := s.evalContext(r, req.TimeoutMs)
	defer cancel()
	vals, err := s.router.CertainAnswers(ctx, plan, req.DB, free, opts)
	elapsed := time.Since(start)
	entry := slowEntry{
		Time:     start.UTC().Format(time.RFC3339Nano),
		Endpoint: "answers",
		Query:    plan.Query.String(),
		Class:    classLabel(plan.Class),
		Engine:   plan.Engine(opts).String(),
		DB:       ref.Name,
		dur:      elapsed,
	}
	if err != nil {
		entry.Error = err.Error()
		s.observeEval(entry)
		s.evalError(w, err)
		return
	}
	s.observeEval(entry)
	answers := make([]map[string]string, len(vals))
	for i, v := range vals {
		m := make(map[string]string, len(v))
		for x, c := range v {
			m[string(x)] = string(c)
		}
		answers[i] = m
	}
	writeJSON(w, http.StatusOK, answersResponse{
		Query:   plan.Query.String(),
		Free:    req.Free,
		Answers: answers,
		Count:   len(answers),
		Class:   plan.Class.String(),
		Cached:  hit,
		DB:      ref,
	})
}
