// Command cqa-serve runs the CQA service: an HTTP/JSON API over the
// trichotomy machinery with a shared plan cache (classification + FO
// rewriting compiled once per distinct query) and a registry of named
// uncertain databases with atomic snapshot swap.
//
// Usage:
//
//	cqa-serve [-addr :8334] [-cache 1024] [-workers N] [-quiet] [-wal dir]
//
// With -wal, every upload, delta write, and delete is journaled to an
// append-only log in dir before it publishes, and the journal is
// replayed on boot to restore the registry (exact version chain
// included) after a crash or restart.
//
// Endpoints (see internal/server):
//
//	POST /v1/classify, /v1/certain, /v1/answers, /v1/rewrite
//	GET  /v1/catalog, /healthz, /metrics
//	PUT/GET/DELETE /v1/db/{name}, GET /v1/db
//	POST /v1/db/{name}/facts (incremental delta writes)
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests.
package main

import (
	"os"

	"cqa/internal/servecmd"
)

func main() {
	os.Exit(servecmd.Run(os.Args[1:], os.Stdout, os.Stderr))
}
