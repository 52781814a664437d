// Package cluster is the scatter-gather tier: the one place evaluation
// fans out. Data is replicated — every node holds the full snapshot of
// each named database — and *work* is partitioned: a request names a
// logical shard (a key-hash partition of the top-level work, see
// shard.Of) and the node evaluates exactly that partition against its
// full local snapshot. Replication is what makes retries, failover, and hedging
// sound: any node can serve any shard, so a lost node costs latency,
// never answers.
//
// The package splits into three layers:
//
//   - Exec (node.go) is the server side: one shard-evaluation request
//     against a local store, run inline over the snapshot's cached
//     shard.Partition with the span-restricted eliminator walks.
//   - Transport (transport.go) moves one request to one node: a real
//     HTTP/JSON implementation, an in-process Loopback for tests and
//     benchmarks, and SimNet (sim.go), a deterministic seedable fault
//     model wrapping any transport with per-link latency, drops,
//     one-way partitions, and node crash/restart.
//   - Router (router.go) owns client-side fault tolerance: consistent-
//     hash shard→node assignment, per-attempt timeouts with exponential
//     backoff and full jitter under the shared evalctx budget, hedged
//     second attempts after a p99-derived delay, a per-node circuit
//     breaker probed via /readyz, and explicit partial-failure merge
//     semantics — early-exit merges may conclude from surviving shards,
//     everything else fails closed or degrades explicitly, never a
//     silently wrong boolean.
package cluster

import (
	"errors"
	"fmt"

	"cqa/internal/query"
)

// ErrUnavailable marks a retryable infrastructure failure: the node is
// down, unreachable, overloaded, or lost the response. The serving
// layer maps it to 503 shard_unavailable.
var ErrUnavailable = errors.New("cluster: node unavailable")

// RequestError is a permanent, request-shaped failure reported by a
// node: a malformed query, an invalid shard index, an engine the plan
// cannot run. Retrying it on another replica cannot help, so the router
// returns it immediately.
type RequestError struct {
	// Code is a short taxonomy tag ("bad_request", "bad_query", ...).
	Code string
	// Msg is the human-readable detail.
	Msg string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("cluster: %s: %s", e.Code, e.Msg)
}

// Unavailable reports whether err is a retryable infrastructure
// failure (as opposed to an error of the request itself).
func Unavailable(err error) bool {
	return errors.Is(err, ErrUnavailable)
}

// Kind selects the unit of work a shard-evaluation request carries.
type Kind string

const (
	// KindBool decides the Boolean FO certainty of the shard's
	// partition of the top relation's blocks; the router merges with
	// early-exit OR semantics (any true is definitive, false needs all
	// shards).
	KindBool Kind = "bool"
	// KindSingle runs the entire certainty decision (ptime / conp
	// plans, and any plan ScatterableFO refuses) on the one shard
	// owning the plan key.
	KindSingle Kind = "single"
	// KindSweep derives and decides the shard's certain answers in one
	// batched columnar pass (sweepable FO plans); the router unions.
	KindSweep Kind = "sweep"
	// KindCheck enumerates the candidate answers locally and checks
	// only the candidates whose row hashes to the request's shard; the
	// router unions the disjoint per-shard answer sets.
	KindCheck Kind = "check"
)

// EvalRequest is one shard-evaluation request. Queries travel as their
// canonical text (Plan.Key), so the node's plan-cache compilation is
// guaranteed to reproduce the coordinator's plan.
type EvalRequest struct {
	Query string `json:"query"`
	DB    string `json:"db"`
	Kind  Kind   `json:"kind"`
	// Shard / Shards name the logical partition: this request covers
	// partition Shard of a Shards-way split. The width is the router's;
	// a node evaluates whatever width a request names.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Free are the free variables of an answers request (KindSweep /
	// KindCheck), in the caller's order: the columns of the answers.
	Free []query.Var `json:"free,omitempty"`
	// Engine is the resolved engine name ("fo", "ptime", "conp"; see
	// core.ParseEngine); empty selects auto.
	Engine string `json:"engine,omitempty"`
	// MaxSteps is the step budget granted to this attempt — the
	// *remaining* request budget at dispatch time, so retries and
	// hedges cannot multiply what one request may spend. <= 0 is
	// unlimited.
	MaxSteps int64 `json:"maxSteps,omitempty"`
	// MemoCap bounds the memoization entries the node's evaluation may
	// retain (core.Options.MemoCap); <= 0 is unlimited.
	MemoCap int `json:"memoCap,omitempty"`
	// Approximate permits the coNP engine's sampling degradation.
	Approximate bool `json:"approximate,omitempty"`
	Samples     int  `json:"samples,omitempty"`
}

// EvalResponse is the verdict of one shard evaluation.
type EvalResponse struct {
	// Certain is the Boolean verdict (KindBool / KindSingle).
	Certain bool `json:"certain"`
	// Answers are the shard's certain answers (KindSweep / KindCheck),
	// rows over Free. A reply in another shape fails to decode, so the
	// router counts the node unavailable.
	Answers query.Answers `json:"answers,omitempty"`
	// Approximate / Fraction report a KindSingle coNP evaluation that
	// degraded to the repair counter's estimate on the node.
	Approximate bool    `json:"approximate,omitempty"`
	Fraction    float64 `json:"fraction,omitempty"`
	// Steps is the engine work the node spent on this request; the
	// router charges it against the shared request budget.
	Steps int64 `json:"steps"`
}
