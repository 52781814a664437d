// Package cqa is a complete Go implementation of Koutris and Wijsen,
// "The Data Complexity of Consistent Query Answering for Self-Join-Free
// Conjunctive Queries Under Primary Key Constraints" (PODS 2015).
//
// The module root carries the repository-level benchmark harness; the
// library lives under internal/ with core as the public facade:
//
//	cls, _ := core.Classify(q) // FO / P\FO / coNP-complete
//	plan, _ := core.Compile(q) // per-query work, done once
//	res, _ := plan.CertainIndexedCtx(ctx, match.NewIndex(d), core.Options{})
//
// A compiled plan has one entry point per job: CertainIndexedCtx
// (certainty), CertainAnswersIndexedCtx (certain answers) and
// CountIndexedCtx (#CERTAINTY repair counts). Certain answers come back
// as one query.Answers table — a row of constants per answer, in the
// order of the free variables passed in — sorted into the one answer
// order every path, local or routed, returns.
//
// See README.md for the guided tour, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for the paper-vs-measured record.
package cqa
