package server

import (
	"errors"
	"net/http"

	"cqa/internal/cluster"
)

// This file is the serving layer of the remote shard tier: the node
// side (POST /v1/shard/eval answers per-shard work against the local
// store); the routing side — stored-database certain/answers requests
// fan out through the cluster.Router instead of evaluating locally — is
// a branch of the evaluate pipeline in server.go.
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
