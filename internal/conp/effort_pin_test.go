package conp

import (
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/workload"
)

// effortPin fixes the search tree the DPLL explores on one seeded
// instance: the verdict plus the Decisions and Backtrack counters. A
// change to how constraints are built or numbered that reorders the
// branching shows up here even when every verdict still agrees.
type effortPin struct {
	name                  string
	build                 func() *db.DB
	certain               bool
	blocks, matches       int
	decisions, backtracks int
}

func satPin(seed int64, vars, clauses int) func() *db.DB {
	return func() *db.DB {
		return workload.SATInstance(workload.RandomCNF(rand.New(rand.NewSource(seed)), vars, clauses, 3))
	}
}

func hardPin(seed int64, vars, clauses, vals int) func() *db.DB {
	return func() *db.DB {
		return workload.HardInstance(rand.New(rand.NewSource(seed)), vars, clauses, vals)
	}
}

var effortPins = []effortPin{
	{"sat-1-8x30", satPin(1, 8, 30), false, 38, 90, 164, 117},
	{"sat-2-10x44", satPin(2, 10, 44), false, 54, 132, 318, 253},
	{"sat-3-12x60", satPin(3, 12, 60), false, 72, 180, 558, 468},
	{"sat-4-14x56", satPin(4, 14, 56), false, 70, 168, 2880, 2796},
	{"sat-5-16x70", satPin(5, 16, 70), false, 86, 210, 446, 346},
	{"hard-1-6x10x2", hardPin(1, 6, 10, 2), false, 11, 13, 13, 7},
	{"hard-2-10x40x3", hardPin(2, 10, 40, 3), true, 50, 80, 30, 31},
	{"hard-3-8x24x2", hardPin(3, 8, 24, 2), true, 26, 35, 15, 16},
	{"hard-4-12x60x2", hardPin(4, 12, 60, 2), true, 72, 122, 6, 7},
	{"sat-6-8x64", satPin(6, 8, 64), true, 72, 192, 552, 553},
	{"sat-7-10x80", satPin(7, 10, 80), true, 90, 240, 911, 912},
	{"sat-8-12x100", satPin(8, 12, 100), true, 112, 300, 1584, 1585},
}

func TestSearchEffortPinned(t *testing.T) {
	q := workload.SATQuery()
	for _, p := range effortPins {
		got, st := Certain(q, p.build())
		want := Stats{Blocks: p.blocks, Matches: p.matches, Decisions: p.decisions, Backtrack: p.backtracks}
		if got != p.certain || st != want {
			t.Errorf("%s: certain=%v %+v, want certain=%v %+v", p.name, got, st, p.certain, want)
		}
	}
}
