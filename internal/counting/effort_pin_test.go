package counting

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/trace"
	"cqa/internal/workload"
)

// countPin fixes the work of one exact count: the components, the
// falsifying repairs, and the search nodes the shared exclusion DPLL
// visits over all components. A change to how the search branches,
// splits or caches shows up here as a diff even when every count still
// agrees.
type countPin struct {
	name       string
	build      func(testing.TB) (query.Query, *db.DB)
	components int
	falsifying string
	nodes      int64
}

// factsCase parses a fixed instance of q.
func factsCase(q, facts string) func(testing.TB) (query.Query, *db.DB) {
	return func(t testing.TB) (query.Query, *db.DB) {
		d, err := db.ParseFacts(nil, facts)
		if err != nil {
			t.Fatal(err)
		}
		return query.MustParse(q), d
	}
}

func hubCase(n int) func(testing.TB) (query.Query, *db.DB) {
	return func(t testing.TB) (query.Query, *db.DB) { return hubInstance(t, n) }
}

func satCase(seed int64, vars, clauses int) func(testing.TB) (query.Query, *db.DB) {
	return func(testing.TB) (query.Query, *db.DB) {
		f := workload.RandomCNF(rand.New(rand.NewSource(seed)), vars, clauses, 3)
		return workload.SATQuery(), workload.SATInstance(f)
	}
}

func hardCase(seed int64, vars, clauses, vals int) func(testing.TB) (query.Query, *db.DB) {
	return func(testing.TB) (query.Query, *db.DB) {
		return workload.NonKeyJoinQuery(), workload.HardInstance(rand.New(rand.NewSource(seed)), vars, clauses, vals)
	}
}

var countPins = []countPin{
	// One C1 block choosing between a dead end and two y's, whose C2
	// blocks hold two facts and one: the single-fact block is forced.
	{"forced", factsCase("C1(x | y), C2(y | z)", `
		C1(x | dead)
		C1(x | y1)
		C1(x | y2)
		C2(y1 | z0)
		C2(y1 | z1)
		C2(y2 | z0)
	`), 1, "2", 3},
	// R(a | b), S(b | c) are forced, so every repair keeps them.
	{"always-sat", factsCase("R(x | y), S(y | z)", `
		R(a | b)
		S(b | c)
		R(a2 | nob1)
		R(a2 | nob2)
	`), 1, "0", 0},
	{"hub-12", hubCase(12), 1, "2", 24},
	{"sat-1-4x10", satCase(1, 4, 10), 1, "464", 105},
	{"sat-2-4x8", satCase(2, 4, 8), 1, "208", 74},
	{"sat-3-3x6", satCase(3, 3, 6), 1, "76", 41},
	// Three chain components in one database: the counts multiply.
	{"chains", factsCase("C1(x | y), C2(y | z)", `
		C1(x0 | dead0)
		C1(x0 | y0)
		C2(y0 | z0)
		C2(y0 | z1)
		C1(x1 | dead1)
		C1(x1 | y1a)
		C1(x1 | y1b)
		C2(y1a | z0)
		C2(y1b | z0)
		C2(y1b | z1)
		C1(x2 | dead2)
		C1(x2 | y2)
		C2(y2 | z0)
	`), 3, "4", 6},
	{"hard-1-4x6x2", hardCase(1, 4, 6, 2), 1, "58", 39},
	{"hard-2-5x8x3", hardCase(2, 5, 8, 3), 1, "4376", 68},
}

func TestCountEffortPinned(t *testing.T) {
	for _, p := range countPins {
		q, d := p.build(t)
		tr := trace.New()
		res, err := Count(q, match.NewIndex(d), evalctx.NewTraced(context.Background(), evalctx.Limits{}, tr), Options{Exact: true})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		var nodes int64
		for _, s := range tr.Breakdown() {
			if s.Stage == "count" {
				nodes = s.Counters["nodes"]
			}
		}
		fals := new(big.Int).Sub(res.Total, res.Satisfying).String()
		if res.Components != p.components || fals != p.falsifying || nodes != p.nodes {
			t.Errorf("%s: components=%d falsifying=%s nodes=%d, want %d %s %d",
				p.name, res.Components, fals, nodes, p.components, p.falsifying, p.nodes)
		}
	}
}
