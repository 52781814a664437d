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
		if _, err := GPurify(q, d); err != nil {
			b.Fatal(err)
		}
	}
}
