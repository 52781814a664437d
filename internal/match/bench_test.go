package match

import (
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/query"
	"cqa/internal/workload"
)

func benchDB(blocks int, inconsistent float64) (query.Query, *db.DB) {
	rng := rand.New(rand.NewSource(7))
	q := query.MustParse("R(x | y), S(y | z)")
	d := db.New()
	for i := 0; i < blocks; i++ {
		x := query.Const(fmt.Sprintf("x%d", i))
		y := query.Const(fmt.Sprintf("y%d", i))
		d.Add(db.Fact{Rel: q.Atoms[0].Rel, Args: []query.Const{x, y}})
		d.Add(db.Fact{Rel: q.Atoms[1].Rel, Args: []query.Const{y, "z"}})
		if rng.Float64() < inconsistent {
			y2 := query.Const(fmt.Sprintf("y%db", i))
			d.Add(db.Fact{Rel: q.Atoms[0].Rel, Args: []query.Const{x, y2}})
		}
	}
	return q, d
}

func BenchmarkAllMatches1k(b *testing.B) {
	q, d := benchDB(1000, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllMatches(q, d)
	}
}

func BenchmarkExistsMatch(b *testing.B) {
	q, d := benchDB(1000, 0.3)
	ix := NewIndex(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Exists(q, query.Valuation{})
	}
}

func BenchmarkPurifyNoisy(b *testing.B) {
	q, d := benchDB(500, 0.5)
	// Add irrelevant noise.
	for i := 0; i < 500; i++ {
		d.Add(db.Fact{Rel: q.Atoms[0].Rel, Args: []query.Const{
			query.Const(fmt.Sprintf("nx%d", i)), query.Const(fmt.Sprintf("ny%d", i))}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Purify(q, d, nil)
	}
}

func BenchmarkGPurifyQ0(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	q := workload.Q0()
	d := workload.Q0Instance(rng, 100, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GPurify(q, d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// plantedSATDB has the shape of a SAT database of the serve-hard
// serving workload: the SAT reductions (workload.SATInstance) of three
// random 14-variable, 60-clause 3-CNFs, each satisfied by a hidden
// assignment, with their constants prefixed apart — 84 R facts and 540
// S facts.
func plantedSATDB(rng *rand.Rand) *db.DB {
	const vars, clauses = 14, 60
	d := db.New()
	for k := 0; k < 3; k++ {
		hidden := make([]bool, vars+1)
		for v := 1; v <= vars; v++ {
			hidden[v] = rng.Intn(2) == 0
		}
		f := workload.CNF{Vars: vars}
		for len(f.Clauses) < clauses {
			c := workload.RandomCNF(rng, vars, 1, 3).Clauses[0]
			for _, lit := range c {
				if (lit > 0) == hidden[max(lit, -lit)] {
					f.Clauses = append(f.Clauses, c)
					break
				}
			}
		}
		for _, fact := range workload.SATInstance(f).Facts() {
			args := make([]query.Const, len(fact.Args))
			for i, a := range fact.Args {
				args[i] = query.Const(fmt.Sprintf("f%d_%s", k, a))
			}
			d.Add(db.NewFact(fact.Rel, args...))
		}
	}
	return d
}

// BenchmarkConstraintsSAT builds the repair-constraint form of the SAT
// reduction's query R(x | y), S(u | y) over a planted SAT database. S's
// key is never bound, so each R fact reaches its S facts through the
// lookup table on y.
func BenchmarkConstraintsSAT(b *testing.B) {
	q := workload.SATQuery()
	ix := NewIndex(plantedSATDB(rand.New(rand.NewSource(1))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Constraints(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}
