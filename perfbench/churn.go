package main

import (
	"math"
	"math/rand"
	"strings"

	"cqa/internal/core"
	"cqa/internal/naive"
	"cqa/internal/query"
	"cqa/internal/workload"
)

// churnQueries is about four times plancache.DefaultCapacity (1024), so
// the query set does not fit the server's plan cache.
const churnQueries = 4096

// churnSkew is the Zipf exponent of query popularity: with 4096 queries
// and a 1024-plan cache it leaves the hit ratio well between 0 and 1.
const churnSkew = 0.8

// genCompileChurn builds /v1/classify and /v1/certain traffic over 4096
// distinct random queries (FO, P \ FO and coNP-complete in a 4:1:3 mix),
// each certain request carrying a small inline database. Expected
// certain answers come from the repair-enumeration oracle; expected
// classify responses carry the query's canonical text.
func genCompileChurn(seed int64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	// P \ FO is rare among random queries, so it gets the smallest quota.
	quota := map[core.Class]int{core.FO: churnQueries / 2, core.PTime: churnQueries / 8, core.CoNPComplete: churnQueries * 3 / 8}
	seen := map[string]bool{}
	w := &traffic{focus: kindClassify, replayLen: 2000}
	for len(seen) < churnQueries {
		// Three to five atoms: enough compile work per request that the
		// request, not the HTTP round trip, is what a run measures.
		atoms := 3 + rng.Intn(3)
		p := workload.QueryParams{Atoms: atoms, MaxArity: 3, MaxKey: 2, Vars: atoms + 1,
			PConst: 0.05, PModeC: 0.1, Consts: 2}
		q := workload.RandomQuery(rng, p)
		key := q.Canonical()
		if seen[key] {
			continue
		}
		// Classification only sorts the generated queries into the class
		// quotas; no response is checked against it.
		cls, err := core.Classify(q)
		if err != nil || quota[cls.Class] == 0 {
			continue
		}
		facts, certain, ok := smallDB(rng, q)
		if !ok {
			continue
		}
		quota[cls.Class]--
		seen[key] = true
		text := q.String()
		w.pool = append(w.pool,
			request{kind: kindClassify, query: text, want: want{canonical: key}},
			request{kind: kindCertain, query: text, facts: facts, want: want{certain: certain}})
	}
	// Query i has popularity 1/(i+1)^skew; generation order is random, so
	// popularity is independent of shape and class.
	weights := make([]float64, len(w.pool))
	for i := range weights {
		weights[i] = math.Pow(float64(i/2+1), -churnSkew)
	}
	w.reads = stream(rng, weights, 200000)
	return w
}

// smallDB draws an inline database of at most 10 blocks for q and
// decides it with the repair-enumeration oracle.
func smallDB(rng *rand.Rand, q query.Query) (string, bool, bool) {
	for try := 0; try < 4; try++ {
		d := workload.RandomDB(rng, q, workload.DBParams{SeedMatches: 2, Domain: 2, ExtraPerBlock: 0.6, Noise: 1})
		if d.NumBlocks() > 10 || d.Len() == 0 {
			continue
		}
		certain, err := naive.Certain(q, d)
		if err != nil {
			continue
		}
		var b strings.Builder
		for _, f := range d.Facts() {
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
		return b.String(), certain, true
	}
	return "", false, false
}
