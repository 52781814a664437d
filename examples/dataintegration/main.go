// Data integration: certain answers over conflicting sources.
//
// Two scrapers ingest product data into the same tables and disagree on
// prices and suppliers; the primary keys (product id, supplier id) are
// violated. This example computes the *certain answers* of a non-Boolean
// query — products certainly supplied from a given country — which hold
// no matter how the conflicts are resolved.
//
// Run with: go run ./examples/dataintegration
package main

import (
	"context"
	"fmt"
	"log"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/query"
)

func main() {
	// Product(pid | supplier), Supplier(sid | country).
	// Free variable: pid. The Boolean instantiations are classified FO,
	// so every certain-answer check runs through the rewriting engine.
	q, err := query.Parse("Product(pid | sid), Supplier(sid | 'DE')")
	if err != nil {
		log.Fatal(err)
	}
	cls, err := core.Classify(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s   [CERTAINTY: %v]\n\n", q, cls.Class)

	d, err := db.ParseFacts(q.Schema(), `
		# scraper A
		Product(p1 | acme)
		Product(p2 | globex)
		Product(p3 | acme)
		Supplier(acme | DE)
		Supplier(globex | DE)
		# scraper B disagrees on p2's supplier and globex's country
		Product(p2 | initech)
		Supplier(globex | FR)
		Supplier(initech | US)
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("uncertain database:")
	for _, f := range d.Facts() {
		fmt.Printf("  %s\n", f)
	}
	blocks := 0
	for _, b := range d.Blocks() {
		if len(b.Facts) > 1 {
			blocks++
		}
	}
	fmt.Printf("(%d facts, %d conflicting blocks, %.0f repairs)\n\n",
		d.Len(), blocks, d.NumRepairs())

	plan, err := core.Compile(q)
	if err != nil {
		log.Fatal(err)
	}
	answers, err := plan.CertainAnswersIndexedCtx(context.Background(), []query.Var{"pid"}, match.NewIndex(d), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("products certainly supplied from DE (true in every repair):")
	for _, a := range answers {
		fmt.Printf("  pid = %s\n", a[0])
	}
	// p1: acme is consistently German -> certain.
	// p2: might be initech (US) -> not certain.
	// p3: acme again -> certain.

	// Contrast with the "possible" reading: any product with at least one
	// supporting repair. An embedding whose facts are mutually consistent
	// extends to a repair, so plain match enumeration decides possibility.
	fmt.Println("\nproducts possibly supplied from DE (true in some repair):")
	seen := map[string]bool{}
	for _, m := range match.AllMatches(q, d) {
		facts, err := db.GroundQuery(q, m)
		if err != nil || !db.ConsistentSet(facts) {
			continue
		}
		pid := string(m["pid"])
		if !seen[pid] {
			seen[pid] = true
			fmt.Printf("  pid = %s\n", pid)
		}
	}
}
