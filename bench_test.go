// Package cqa holds the repository-level benchmark harness: one testing.B
// benchmark per experiment of EXPERIMENTS.md. Absolute numbers depend on
// hardware; the shapes (polynomial vs exponential growth, who wins) are
// what reproduce the paper's claims.
package cqa

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/baseline"
	"cqa/internal/conp"
	"cqa/internal/core"
	"cqa/internal/counting"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/ptime"
	"cqa/internal/query"
	"cqa/internal/rewrite"
	"cqa/internal/server"
	"cqa/internal/sqlmini"
	"cqa/internal/workload"
)

// --- E1/E2/E4: classification cost ---

func BenchmarkClassifyFigure1(b *testing.B) {
	q := query.MustParse("R(x|y), S(y|z), T(z|x), U(x|u), V(x,u|v)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := attack.Classify(q); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkClassifyRandom(b *testing.B, atoms int) {
	rng := rand.New(rand.NewSource(42))
	p := workload.DefaultQueryParams()
	p.Atoms = atoms
	p.Vars = atoms + 2
	queries := make([]query.Query, 64)
	for i := range queries {
		queries[i] = workload.RandomQuery(rng, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := attack.Classify(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifyRandom4(b *testing.B)  { benchmarkClassifyRandom(b, 4) }
func BenchmarkClassifyRandom8(b *testing.B)  { benchmarkClassifyRandom(b, 8) }
func BenchmarkClassifyRandom12(b *testing.B) { benchmarkClassifyRandom(b, 12) }

// --- E5: FO engine scaling ---

func chainDB(n int, inconsistent float64, seed int64) *db.DB {
	rng := rand.New(rand.NewSource(seed))
	q := query.MustParse("R(x | y), S(y | z)")
	d := db.New()
	for i := 0; i < n; i++ {
		x := query.Const(fmt.Sprintf("x%d", i))
		y := query.Const(fmt.Sprintf("y%d", i))
		d.Add(db.Fact{Rel: q.Atoms[0].Rel, Args: []query.Const{x, y}})
		d.Add(db.Fact{Rel: q.Atoms[1].Rel, Args: []query.Const{y, "z"}})
		if rng.Float64() < inconsistent {
			y2 := query.Const(fmt.Sprintf("y%d_b", i))
			d.Add(db.Fact{Rel: q.Atoms[0].Rel, Args: []query.Const{x, y2}})
			d.Add(db.Fact{Rel: q.Atoms[1].Rel, Args: []query.Const{y2, "z"}})
		}
	}
	return d
}

func benchmarkCertainFO(b *testing.B, n int) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := chainDB(n, 0.3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := core.Compile(q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{Engine: core.EngineFO}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCertainFO1k(b *testing.B)  { benchmarkCertainFO(b, 1000) }
func BenchmarkCertainFO10k(b *testing.B) { benchmarkCertainFO(b, 10000) }

// --- E6: P engine (dissolution) scaling on q0 ---

func benchmarkCertainPTimeQ0(b *testing.B, nodes int) {
	rng := rand.New(rand.NewSource(11))
	q := workload.Q0()
	d := workload.Q0Instance(rng, nodes, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ptime.Certain(q, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCertainPTimeQ0n100(b *testing.B)  { benchmarkCertainPTimeQ0(b, 100) }
func BenchmarkCertainPTimeQ0n1000(b *testing.B) { benchmarkCertainPTimeQ0(b, 1000) }

func BenchmarkCertainPTimeFigure2(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	q := query.MustParse("R(x | y, v), S(y | x), V1#c(v | w), W(w | v), V2#c(w | y)")
	p := workload.DefaultDBParams()
	p.SeedMatches = 20
	p.Domain = 4
	d := workload.RandomDB(rng, q, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ptime.Certain(q, d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: coNP engine on strong-cycle gadgets ---

func benchmarkCertainCoNP(b *testing.B, vars int) {
	rng := rand.New(rand.NewSource(17))
	q := workload.NonKeyJoinQuery()
	d := workload.HardInstance(rng, vars, 2*vars, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conp.Certain(q, d)
	}
}

func BenchmarkCertainCoNPVars8(b *testing.B)  { benchmarkCertainCoNP(b, 8) }
func BenchmarkCertainCoNPVars16(b *testing.B) { benchmarkCertainCoNP(b, 16) }
func BenchmarkCertainCoNPVars24(b *testing.B) { benchmarkCertainCoNP(b, 24) }

// plantedCNF draws a random 3-CNF whose clauses all hold under a hidden
// assignment: the formula is satisfiable, so CERTAINTY(R(x | y),
// S(u | y)) is false on its SAT reduction.
func plantedCNF(rng *rand.Rand, vars, clauses int) workload.CNF {
	hidden := make([]bool, vars+1)
	for v := 1; v <= vars; v++ {
		hidden[v] = rng.Intn(2) == 0
	}
	f := workload.CNF{Vars: vars}
	for len(f.Clauses) < clauses {
		c := workload.RandomCNF(rng, vars, 1, 3).Clauses[0]
		for _, lit := range c {
			if v := max(lit, -lit); (lit > 0) == hidden[v] {
				f.Clauses = append(f.Clauses, c)
				break
			}
		}
	}
	return f
}

// BenchmarkCertainCoNPPlantedSAT is the coNP request of perfbench's
// serve-hard workload: the union of three planted 14-variable,
// 60-clause SAT reductions, constants prefixed apart, decided through
// the compiled plan on one shared index.
func BenchmarkCertainCoNPPlantedSAT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := db.New()
	for k := 0; k < 3; k++ {
		prefix := fmt.Sprintf("f%d_", k)
		for _, f := range workload.SATInstance(plantedCNF(rng, 14, 60)).Facts() {
			d.Add(db.NewFact(f.Rel, query.Const(prefix)+f.Args[0], query.Const(prefix)+f.Args[1]))
		}
	}
	plan, err := core.Compile(workload.SATQuery())
	if err != nil {
		b.Fatal(err)
	}
	ix := match.NewIndex(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := plan.CertainIndexedCtx(context.Background(), ix, core.Options{})
		if err != nil || res.Certain {
			b.Fatalf("certain=%v, err=%v; a planted formula is satisfiable", res.Certain, err)
		}
	}
}

// --- E8: rewriting construction ---

func BenchmarkRewritingConstruction(b *testing.B) {
	q := workload.PathQuery(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.Rewriting(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: purification ---

func BenchmarkPurify(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	q := workload.NonKeyJoinQuery()
	p := workload.DefaultDBParams()
	p.SeedMatches = 50
	p.Domain = 10
	p.Noise = 200
	d := workload.RandomDB(rng, q, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.Purify(q, d, nil)
	}
}

func BenchmarkGPurify(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	q := workload.Q0()
	d := workload.Q0Instance(rng, 60, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.GPurify(q, d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: match enumeration substrate ---

func BenchmarkAllMatchesChain(b *testing.B) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := chainDB(2000, 0.3, 29)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.AllMatches(q, d)
	}
}

// --- E12: q0 on reachability-style instances ---

func BenchmarkQ0Reachability(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	q := workload.Q0()
	d := workload.Q0Instance(rng, 300, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ptime.Certain(q, d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: exact counting ---

func BenchmarkCountingFactorized(b *testing.B) {
	q := workload.Q0()
	d := db.New()
	for i := 0; i < 40; i++ {
		x := query.Const(fmt.Sprintf("x%d", i))
		y := query.Const(fmt.Sprintf("y%d", i))
		d.Add(db.Fact{Rel: q.Atoms[0].Rel, Args: []query.Const{x, y}})
		d.Add(db.Fact{Rel: q.Atoms[0].Rel, Args: []query.Const{x, query.Const(fmt.Sprintf("yd%d", i))}})
		d.Add(db.Fact{Rel: q.Atoms[1].Rel, Args: []query.Const{y, x}})
		d.Add(db.Fact{Rel: q.Atoms[1].Rel, Args: []query.Const{y, query.Const(fmt.Sprintf("xd%d", i))}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := counting.SatisfyingRepairs(q, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountServeHardShape counts the repairs of a database shaped
// like the serving benchmark's /v1/count instances: 2,500 components of
// C1(x | y), C2(y | z), with no hub and with a 64-block hub component
// that is sampled. The columnar view is warmed first, as the store
// warms every snapshot.
func BenchmarkCountServeHardShape(b *testing.B) {
	q := query.MustParse("C1(x | y), C2(y | z)")
	for _, hub := range []int{0, 64} {
		b.Run(fmt.Sprintf("hub%d", hub), func(b *testing.B) {
			d, err := db.ParseFacts(q.Schema(), countShapeFacts(rand.New(rand.NewSource(1)), 2500, hub))
			if err != nil {
				b.Fatal(err)
			}
			d.Columnar()
			ix := match.NewIndex(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := counting.Count(q, ix, nil, counting.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countShapeFacts renders comps components for C1(x | y), C2(y | z): one
// C1 block of two or three facts, exactly one pointing at a y with no
// C2 block, the others at y's with C2 blocks of one or two facts. With
// hub > 0 one more component has hub C1 blocks that each choose between
// a shared y and a dead end, so its 2^hub assignments exceed the exact
// bound. It mirrors the count instance of the serving benchmark (a
// module of its own, so its generator cannot be imported).
func countShapeFacts(rng *rand.Rand, comps, hub int) string {
	var b strings.Builder
	line := func(rel, key, val string) { fmt.Fprintf(&b, "%s(%s | %s)\n", rel, key, val) }
	for i := 0; i < comps; i++ {
		x := "x" + strconv.Itoa(i)
		ys := 2 + rng.Intn(2)
		line("C1", x, "dead"+strconv.Itoa(i))
		for k := 1; k < ys; k++ {
			y := fmt.Sprintf("y%d_%d", i, k)
			line("C1", x, y)
			zs := 1 + rng.Intn(2)
			for z := 0; z < zs; z++ {
				line("C2", y, "z"+strconv.Itoa(z))
			}
		}
	}
	for j := 0; j < hub; j++ {
		h := "h" + strconv.Itoa(j)
		line("C1", h, "hub")
		line("C1", h, "hubdead"+strconv.Itoa(j))
	}
	if hub > 0 {
		line("C2", "hub", "z0")
		line("C2", "hub", "z1")
	}
	return b.String()
}

// --- E14: baseline engine ---

func BenchmarkFMRewritingChain(b *testing.B) {
	q := query.MustParse("R(x | y), S(y | z)")
	d := chainDB(2000, 0.3, 37)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.FMCertain(q, d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E-serve: HTTP service with shared plan cache ---

// BenchmarkServeCertainWarmCache measures a /v1/certain round trip over
// httptest with a warm plan cache (every iteration reuses one cached
// plan) against the cold path (every iteration is a never-seen query
// whose classification + rewriting must be compiled). The gap is the
// per-request win of the Lemma 3 compile-once/serve-many split.
func BenchmarkServeCertainWarmCache(b *testing.B) {
	newServer := func() (*httptest.Server, func()) {
		srv := server.New(server.Config{CacheSize: 1 << 16, MaxWorkers: 64})
		ts := httptest.NewServer(srv.Handler())
		return ts, ts.Close
	}
	post := func(tb testing.TB, client *http.Client, url string, body []byte) {
		resp, err := client.Post(url+"/v1/certain", "application/json", bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("status %d", resp.StatusCode)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	facts := "R(a | b)\nR(a | b2)\nS(b | c)\nS(b2 | c)\n"

	b.Run("warm", func(b *testing.B) {
		ts, done := newServer()
		defer done()
		body, _ := json.Marshal(map[string]any{
			"query": "R(x | y), S(y | z)",
			"facts": facts,
		})
		post(b, ts.Client(), ts.URL, body) // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.Client(), ts.URL, body)
		}
	})
	b.Run("cold", func(b *testing.B) {
		ts, done := newServer()
		defer done()
		bodies := make([][]byte, b.N)
		for i := range bodies {
			// Distinct relation names per iteration: never a cache hit,
			// so each request pays classification + rewriting.
			bodies[i], _ = json.Marshal(map[string]any{
				"query": fmt.Sprintf("R%d(x | y), S%d(y | z)", i, i),
				"facts": fmt.Sprintf("R%d(a | b)\nR%d(a | b2)\nS%d(b | c)\nS%d(b2 | c)\n", i, i, i, i),
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.Client(), ts.URL, bodies[i])
		}
	})
}

// --- E-index: plan-compiled, index-backed evaluation ---

// falsifiedChainDB builds a chain instance with the given total number
// of blocks (half R, half S) on which the chain query is NOT certain:
// every R-block has one fact whose y-value lacks an S-fact, so a sound
// evaluator must visit every block of both relations — the worst case
// for the Lemma 9/10 block loop, and the case where a per-call block
// re-scan turns the FO engine quadratic.
func falsifiedChainDB(blocks int) *db.DB {
	q := query.MustParse("R(x | y), S(y | z)")
	d := db.New()
	for i := 0; i < blocks/2; i++ {
		x := query.Const(fmt.Sprintf("x%d", i))
		y := query.Const(fmt.Sprintf("y%d", i))
		yBad := query.Const(fmt.Sprintf("y%d_bad", i))
		d.Add(db.Fact{Rel: q.Atoms[0].Rel, Args: []query.Const{x, y}})
		d.Add(db.Fact{Rel: q.Atoms[0].Rel, Args: []query.Const{x, yBad}})
		d.Add(db.Fact{Rel: q.Atoms[1].Rel, Args: []query.Const{y, "z"}})
	}
	return d
}

// benchmarkCertainAcyclic measures the data-side cost of one certainty
// decision for the FO chain query against a pre-compiled plan, the
// serving hot path: plan compilation is outside the timer, so the
// number is pure evaluation (block iteration, key probes, recursion).
func benchmarkCertainAcyclic(b *testing.B, blocks int) {
	q := query.MustParse("R(x | y), S(y | z)")
	plan, err := core.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	d := falsifiedChainDB(blocks)
	if res, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{}); err != nil || res.Certain {
		b.Fatalf("want certain=false, err=nil; got %v, %v", res.Certain, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCertainAcyclic1k(b *testing.B)   { benchmarkCertainAcyclic(b, 1000) }
func BenchmarkCertainAcyclic10k(b *testing.B)  { benchmarkCertainAcyclic(b, 10000) }
func BenchmarkCertainAcyclic100k(b *testing.B) { benchmarkCertainAcyclic(b, 100000) }

// BenchmarkCertainAnswersPool measures the non-Boolean path: enumerate
// candidate bindings of x and decide certainty per candidate.
func BenchmarkCertainAnswersPool(b *testing.B) {
	q := query.MustParse("R(x | y), S(y | z)")
	plan, err := core.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	d := chainDB(500, 0.3, 7)
	free := []query.Var{"x"}
	if _, err := plan.CertainAnswersIndexedCtx(context.Background(), free, match.NewIndex(d), core.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.CertainAnswersIndexedCtx(context.Background(), free, match.NewIndex(d), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: SQL bridge ---

func BenchmarkSQLEvalChain(b *testing.B) {
	q := query.MustParse("R(x | y), S(y | z)")
	sql, err := rewrite.SQL(q)
	if err != nil {
		b.Fatal(err)
	}
	d := chainDB(200, 0.3, 41)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlmini.EvalString(sql, d); err != nil {
			b.Fatal(err)
		}
	}
}
