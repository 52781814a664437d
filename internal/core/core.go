// Package core is the public facade of the library: classification of
// CERTAINTY(q) per the trichotomy of Koutris & Wijsen (PODS 2015,
// Theorem 1) and certain query answering with automatic engine selection.
//
//	cls, _ := core.Classify(q) // FO, P\FO, or coNP-complete
//	plan, _ := core.Compile(q) // the per-query work, done once (Lemma 3)
//	res, _ := plan.CertainIndexedCtx(ctx, match.NewIndex(d), core.Options{})
//
// A compiled Plan has one entry point per job: CertainIndexedCtx
// decides certainty, CertainAnswersIndexedCtx enumerates the certain
// answers of a non-Boolean query, and CountIndexedCtx counts the
// satisfying repairs (#CERTAINTY). Each takes a context and an
// evaluation index; context.Background() with no budget in Options is
// the plain, unchecked call.
//
// Engines:
//
//   - EngineFO: the Lemma 9/10 recursion; polynomial, only for acyclic
//     attack graphs (the FO class).
//   - EnginePTime: the Theorem 4 algorithm (simplification + Markov cycle
//     dissolution); polynomial, for strong-cycle-free attack graphs.
//   - EngineCoNP: DPLL search for a falsifying repair; exact for every
//     query, exponential in the worst case.
//
// EngineAuto picks the cheapest engine that is sound for the query's
// class. The repair-enumeration oracle (package naive) is not an
// engine: it checks the engines in tests and experiments, and a
// request cannot select it.
package core

import (
	"fmt"
	"slices"

	"cqa/internal/attack"
	"cqa/internal/conp"
	"cqa/internal/db"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/trace"
)

// Class re-exports the trichotomy classes.
type Class = attack.Class

// The three complexity classes of Theorem 1.
const (
	FO           = attack.FO
	PTime        = attack.PTime
	CoNPComplete = attack.CoNPComplete
)

// Classification is the result of classifying a query.
type Classification struct {
	Query query.Query
	Class Class
	// Graph is the attack graph the classification is read from.
	Graph *attack.Graph
	// HasCycle / HasStrongCycle expose the two Lemma 3 decisions.
	HasCycle       bool
	HasStrongCycle bool
}

// Classify builds the attack graph of q and classifies CERTAINTY(q) as
// FO, P\FO, or coNP-complete (Theorem 1). The query must be
// self-join-free.
func Classify(q query.Query) (Classification, error) {
	g, err := attack.BuildGraph(q)
	if err != nil {
		return Classification{}, err
	}
	return Classification{
		Query:          q,
		Class:          g.Classify(),
		Graph:          g,
		HasCycle:       g.HasCycle(),
		HasStrongCycle: g.HasStrongCycle(),
	}, nil
}

// Engine selects the solving strategy.
type Engine int

const (
	// EngineAuto picks by classification: FO -> EngineFO, P\FO ->
	// EnginePTime, coNP-complete -> EngineCoNP.
	EngineAuto Engine = iota
	// EngineFO runs the first-order recursion (acyclic attack graphs only).
	EngineFO
	// EnginePTime runs the Theorem 4 polynomial algorithm (no strong cycle).
	EnginePTime
	// EngineCoNP runs the exact falsifying-repair search (any query).
	EngineCoNP
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineFO:
		return "fo"
	case EnginePTime:
		return "ptime"
	case EngineCoNP:
		return "conp"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps an engine name ("auto", "fo", "ptime", "conp") to an
// Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto", "":
		return EngineAuto, nil
	case "fo":
		return EngineFO, nil
	case "ptime":
		return EnginePTime, nil
	case "conp":
		return EngineCoNP, nil
	}
	return EngineAuto, fmt.Errorf("core: unknown engine %q", s)
}

// Options configure an evaluation.
type Options struct {
	// Engine forces a specific engine; EngineAuto selects by class.
	Engine Engine
	// Workers bounds the worker pool CertainAnswersIndexedCtx uses to
	// check candidate bindings; <= 0 selects GOMAXPROCS. 1 forces
	// sequential checking.
	Workers int
	// MaxSteps bounds the total engine steps of one evaluation (search
	// nodes, recursion levels, block branches — shared across the answer
	// workers); <= 0 means unlimited. Exhaustion surfaces as
	// evalctx.ErrBudgetExceeded unless Approximate degrades it.
	MaxSteps int64
	// MemoCap bounds the memoization entries an evaluation may retain
	// (eliminator and ptime memo tables); <= 0 means unlimited.
	// Exhaustion is silent: engines keep computing without caching.
	MemoCap int
	// Approximate selects the anytime estimate over failing. A
	// budget-exhausted coNP-engine decision degrades to the repair
	// counter's estimate of the satisfying fraction (the Result then
	// carries Approximate=true), and a count whose constraint component
	// is too large to count exactly samples that component instead of
	// returning counting.ErrComponentTooLarge.
	Approximate bool
	// Samples is the Monte Carlo draw count per estimated constraint
	// component, for degraded decisions and counts alike; <= 0 selects
	// counting.DefaultSamples.
	Samples int
	// Tracer, when non-nil, records a per-stage breakdown of the
	// evaluation (durations plus engine effort counters); it rides into
	// the engines on the evalctx.Checker. Nil disables tracing at zero
	// per-request cost.
	Tracer *trace.Tracer
}

// Result reports a certain-answer decision.
type Result struct {
	Certain bool
	Class   Class
	Engine  Engine // engine that produced the answer
	// Approximate marks a degraded answer: the exact evaluation ran out
	// of its step budget, Fraction is the repair counter's estimate of
	// the satisfying fraction (exact when every constraint component
	// fit the exact count bound), and Certain is Fraction >= 1.
	Approximate bool
	Fraction    float64 // meaningful only when Approximate
}

// SignatureError reports a query atom whose relation the database stores
// under a different signature (arity, key length, or mode). Evaluating
// anyway would be silently wrong — or would index past the stored
// columns — so every evaluation entry point refuses first.
type SignatureError struct {
	// Stored is the signature the database holds for the relation;
	// Query is the one the query's atom declares.
	Stored, Query schema.Relation
}

func (e *SignatureError) Error() string {
	got, want := e.Stored, e.Query
	return fmt.Sprintf("relation %s: stored signature [arity %d, key %d, mode %s] differs from the query's [arity %d, key %d, mode %s]",
		want.Name, got.Arity, got.KeyLen, got.Mode, want.Arity, want.KeyLen, want.Mode)
}

// CheckSignatures verifies that every relation of q the database holds facts
// for carries the signature q's atom declares, returning a *SignatureError
// on the first mismatch. It is one map lookup per atom and allocates
// nothing on success, so the evaluation entry points run it on every
// request. Uploads infer signatures from the bar syntax, so a mismatch
// means the data and the query disagree about keys or modes.
func CheckSignatures(q query.Query, d *db.DB) error {
	for _, a := range q.Atoms {
		if stored, ok := d.Signature(a.Rel.Name); ok && stored != a.Rel {
			return &SignatureError{Stored: stored, Query: a.Rel}
		}
	}
	return nil
}

// FreeVarError reports a designated free variable that does not occur
// in the query, or that is listed twice. Every answers path — local
// evaluation, the cluster router, a cluster node validating its wire
// input — refuses it with this one error, so the request gets the same
// diagnosis on each.
type FreeVarError struct {
	Var   query.Var
	Query query.Query
	// Repeated reports a variable listed twice: an answer row has one
	// column per listed variable.
	Repeated bool
}

func (e *FreeVarError) Error() string {
	if e.Repeated {
		return fmt.Sprintf("free variable %s is listed twice", e.Var)
	}
	return fmt.Sprintf("free variable %s does not occur in %s", e.Var, e.Query)
}

// CheckFree verifies that every free variable occurs in q and is listed
// once, returning a *FreeVarError on the first that is not.
func CheckFree(q query.Query, free []query.Var) error {
	vars := q.Vars()
	for i, v := range free {
		if !vars.Has(v) {
			return &FreeVarError{Var: v, Query: q}
		}
		if slices.Contains(free[:i], v) {
			return &FreeVarError{Var: v, Query: q, Repeated: true}
		}
	}
	return nil
}

// FalsifyingRepair returns a repair of d that falsifies q, when one
// exists (found = false means q is certain).
func FalsifyingRepair(q query.Query, d *db.DB) (repair []db.Fact, found bool, err error) {
	if !q.SelfJoinFree() {
		return nil, false, fmt.Errorf("core: %s has a self-join", q)
	}
	if err := CheckSignatures(q, d); err != nil {
		return nil, false, err
	}
	r, ok, _ := conp.FalsifyingRepair(q, d)
	return r, ok, nil
}
