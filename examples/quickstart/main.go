// Quickstart: parse a query, classify CERTAINTY(q), evaluate it on an
// uncertain database, and inspect the first-order rewriting.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/rewrite"
)

func main() {
	// A query over an inconsistent HR database: "is there an employee
	// whose department is located in Melbourne?" Dept's key is the
	// department name; Emp's key is the employee id.
	q, err := query.Parse("Emp(eid | dept), Dept(dept | 'Melbourne')")
	if err != nil {
		log.Fatal(err)
	}

	// Classify CERTAINTY(q) per the trichotomy (Theorem 1).
	cls, err := core.Classify(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n", q)
	fmt.Printf("CERTAINTY(q) is %v\n\n", cls.Class)

	// An uncertain database: two conflicting rows for employee e1's
	// department, and two conflicting rows for the location of Sales.
	d, err := db.ParseFacts(q.Schema(), `
		Emp(e1 | Sales)
		Emp(e1 | Marketing)
		Dept(Sales | Melbourne)
		Dept(Marketing | Melbourne)
		Dept(Marketing | Sydney)
	`)
	if err != nil {
		log.Fatal(err)
	}

	// Is the query true in EVERY repair? Compile does the per-query work
	// once (Lemma 3); the plan then evaluates against an index of the
	// data.
	plan, err := core.Compile(q)
	if err != nil {
		log.Fatal(err)
	}
	res, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certain on db? %v (engine: %s)\n", res.Certain, res.Engine)

	// It is not: the repair that keeps Emp(e1|Marketing) and
	// Dept(Marketing|Sydney) has no Melbourne employee. Exhibit it.
	repair, found, err := core.FalsifyingRepair(q, d)
	if err != nil {
		log.Fatal(err)
	}
	if found {
		fmt.Println("a falsifying repair:")
		for _, f := range repair {
			fmt.Printf("  %s\n", f)
		}
	}

	// Repairing the uncertainty about Marketing's location makes the
	// query certain: both choices for e1 now land in Melbourne.
	d2 := d.Filter(func(f db.Fact) bool {
		return f.String() != "Dept(Marketing | Sydney)"
	})
	res2, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d2), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncertain after dropping Dept(Marketing | Sydney)? %v\n", res2.Certain)

	// Because the attack graph is acyclic, CERTAINTY(q) has a consistent
	// first-order rewriting (Theorem 2) — the query a plain SQL engine
	// could run directly on the inconsistent database.
	f, err := rewrite.Rewriting(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst-order rewriting:\n  %s\n", rewrite.Format(f))
}
