// SQL audit: ship the certainty check to a SQL engine.
//
// For FO-classified queries, the consistent first-order rewriting can be
// translated to plain SQL-92 and executed directly on the inconsistent
// tables — no repair machinery at runtime. This example builds the SQL
// for an audit query, runs it with the in-repo miniature SQL evaluator
// (standing in for a real DBMS), and cross-checks the answer against the
// native engine and the exact repair counts.
//
// Run with: go run ./examples/sqlaudit
package main

import (
	"context"
	"fmt"
	"log"

	"cqa/internal/core"
	"cqa/internal/counting"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/rewrite"
	"cqa/internal/sqlmini"
)

func main() {
	// "Is some payment certainly routed through an EU acquirer?"
	q, err := query.Parse("Payment(pay | acq), Acquirer(acq | 'EU')")
	if err != nil {
		log.Fatal(err)
	}
	cls, err := core.Classify(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s   [CERTAINTY: %v]\n\n", q, cls.Class)

	sql, err := rewrite.SQL(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SQL rewriting (columns are c1, c2, ... by position):")
	fmt.Println("  " + sql)

	d, err := db.ParseFacts(q.Schema(), `
		Payment(p1 | adyen)
		Payment(p1 | stripe)
		Payment(p2 | stripe)
		Acquirer(adyen | EU)
		Acquirer(stripe | EU)
		Acquirer(stripe | US)
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nuncertain database (%d facts, %.0f repairs):\n", d.Len(), d.NumRepairs())
	for _, f := range d.Facts() {
		fmt.Printf("  %s\n", f)
	}

	// Run the SQL against the inconsistent tables directly.
	viaSQL, err := sqlmini.EvalString(sql, d)
	if err != nil {
		log.Fatal(err)
	}
	// And the native engine.
	plan, err := core.Compile(q)
	if err != nil {
		log.Fatal(err)
	}
	res, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncertain via SQL rewriting: %v\n", viaSQL)
	fmt.Printf("certain via native engine: %v\n", res.Certain)
	if viaSQL != res.Certain {
		log.Fatal("engines disagree — this must never happen")
	}

	// How close to certain is it? Exact repair counts.
	cres, err := counting.SatisfyingRepairs(q, d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsatisfying repairs: %v of %v (fraction %.2f)\n",
		cres.Satisfying, cres.Total, cres.Fraction)
	// Not certain: the repair {Payment(p1|stripe), Payment(p2|stripe),
	// Acquirer(stripe|US), ...} routes everything through a US acquirer.
	if !res.Certain {
		repair, found, _ := core.FalsifyingRepair(q, d)
		if found {
			fmt.Println("a resolution with no EU-routed payment:")
			for _, f := range repair {
				fmt.Printf("  %s\n", f)
			}
		}
	}
}
