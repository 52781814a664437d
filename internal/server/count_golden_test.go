package server

import (
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/workload"
)

// satFacts renders the SAT-reduction instance of a seeded random
// 3-CNF with 24 variables and 6 clauses as upload text.
func satFacts(seed int64) string {
	f := workload.RandomCNF(rand.New(rand.NewSource(seed)), 24, 6, 3)
	return workload.SATInstance(f).String() + "\n"
}

// TestCountGoldenBody pins /v1/count bodies byte for byte: an exact
// count over three constraint components, a sampled component whose
// seeded Monte Carlo draws falsify some repairs, and the hub gadget
// (one oversized component, no falsifying draw). Any change to the
// constraint order, the component numbering or the sampling RNG's
// consumption shows up here.
func TestCountGoldenBody(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"exact", fmt.Sprintf(`{"query": "R(x | y), S(u | y)", "facts": %q}`, satFacts(1)), `{
  "query": "R(x | y), S(u | y)",
  "satisfying": "12020613120",
  "total": "12230590464",
  "fraction": 0.9828317901234568,
  "exact": true,
  "components": 3,
  "class": "coNP-complete",
  "cached": false
}
`},
		{"sampled", fmt.Sprintf(`{"query": "R(x | y), S(u | y)", "facts": %q}`, satFacts(4)), `{
  "query": "R(x | y), S(u | y)",
  "total": "12230590464",
  "fraction": 0.98095703125,
  "confidence": 0.0041857030730800444,
  "exact": false,
  "components": 1,
  "sampled": 1,
  "class": "coNP-complete",
  "cached": false
}
`},
		{"hub", fmt.Sprintf(`{"query": "R(x | y), S(y | z)", "facts": %q}`, hubFacts(40)), `{
  "query": "R(x | y), S(y | z)",
  "total": "2199023255552",
  "fraction": 0.9996337890625,
  "confidence": 0.0003662109375,
  "exact": false,
  "components": 1,
  "sampled": 1,
  "class": "FO",
  "cached": false
}
`},
	}
	for _, c := range cases {
		rec := do(t, newTestServer().Handler(), "POST", "/v1/count", c.body, nil)
		if rec.Code != 200 || rec.Body.String() != c.want {
			t.Errorf("%s: %d\n%s\nwant\n%s", c.name, rec.Code, rec.Body.String(), c.want)
		}
	}
}

// TestDegradedCertainMatchesCount: a budget-exhausted coNP decision
// degrades to the repair counter, so its fraction is the estimate
// /v1/count reports for the same query, database and sample count.
func TestDegradedCertainMatchesCount(t *testing.T) {
	h := newTestServer().Handler()
	if rec := do(t, h, "PUT", "/v1/db/sat", satFacts(4), nil); rec.Code != 200 {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	var cert certainResponse
	rec := do(t, h, "POST", "/v1/certain",
		`{"query": "R(x | y), S(u | y)", "db": "sat", "engine": "conp", "maxSteps": 50, "samples": 64}`, &cert)
	if rec.Code != 200 || !cert.Approximate || cert.Fraction == nil {
		t.Fatalf("degraded certain: %d %s", rec.Code, rec.Body.String())
	}
	var cnt countResponse
	rec = do(t, h, "POST", "/v1/count", `{"query": "R(x | y), S(u | y)", "db": "sat", "samples": 64}`, &cnt)
	if rec.Code != 200 || cnt.Exact {
		t.Fatalf("count: %d %s", rec.Code, rec.Body.String())
	}
	if *cert.Fraction != cnt.Fraction {
		t.Errorf("degraded certain fraction %v, count fraction %v", *cert.Fraction, cnt.Fraction)
	}
	if cert.Certain != (cnt.Fraction >= 1) {
		t.Errorf("degraded certain = %v with fraction %v", cert.Certain, cnt.Fraction)
	}
}
