// Package servecmd is the cqa-serve command. It lives apart from the
// other commands so that the service binary links only the serving
// path, not the experiment harness or the load generator.
package servecmd

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cqa/internal/server"
	"cqa/internal/wal"
)

// Run implements cqa-serve: the long-running CQA service with the
// shared plan cache and the named-database registry. It parses args,
// serves until SIGINT or SIGTERM, drains, and returns the exit code.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cqa-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8334", "listen address")
	cacheSize := fs.Int("cache", 1024, "plan-cache capacity (compiled plans)")
	workers := fs.Int("workers", 0, "max concurrently evaluating requests (0 = 2×GOMAXPROCS)")
	quiet := fs.Bool("quiet", false, "suppress per-request logging")
	timeout := fs.Duration("timeout", 0, "default per-request evaluation deadline (0 = server default, <0 = none)")
	maxTimeout := fs.Duration("max-timeout", 0, "cap on client-requested timeout_ms overrides (0 = server default)")
	maxSteps := fs.Int64("max-steps", 0, "default per-request engine step budget (0 = server default, <0 = unlimited)")
	memoCap := fs.Int("memo-cap", 0, "per-request memoization entry cap (0 = server default, <0 = unlimited)")
	debugAddr := fs.String("debug-addr", "", "listen address for the debug surface (pprof + slowlog); empty disables it")
	slowLogSize := fs.Int("slowlog", 0, "slow-query log capacity (0 = server default)")
	slowThreshold := fs.Duration("slow-threshold", 0, "latency above which a request enters the slow-query log (0 = server default, <0 = disabled)")
	walDir := fs.String("wal", "", "append-only journal directory: replayed on boot, then every mutation is journaled before it publishes (empty = no durability)")
	walWarnBytes := fs.Int64("wal-warn-bytes", 0, "warn once when the journal grows past this many bytes (0 = no warning)")
	shardNode := fs.Bool("shard-node", false, "serve POST /v1/shard/eval: answer per-shard evaluation requests from a cluster router")
	clusterNodes := fs.String("cluster", "", "comma-separated shard-node base URLs: route stored-database evaluations through the fault-tolerant cluster router")
	clusterShards := fs.Int("cluster-shards", 0, "logical partition width of routed cluster work (0 = 2x the node count)")
	clusterHedge := fs.Duration("cluster-hedge", 0, "hedge a routed shard request not answered within this delay (p99-adaptive floor; 0 = no hedging)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var logger *log.Logger
	if !*quiet {
		logger = log.New(stderr, "cqa-serve ", log.LstdFlags|log.Lmicroseconds)
	}
	if *workers <= 0 {
		*workers = 2 * runtime.GOMAXPROCS(0)
	}
	var nodeURLs []string
	for _, n := range strings.Split(*clusterNodes, ",") {
		if n = strings.TrimRight(strings.TrimSpace(n), "/"); n != "" {
			nodeURLs = append(nodeURLs, n)
		}
	}
	srv := server.New(server.Config{
		CacheSize:         *cacheSize,
		MaxWorkers:        *workers,
		Logger:            logger,
		EvalTimeout:       *timeout,
		MaxTimeout:        *maxTimeout,
		MaxSteps:          *maxSteps,
		MemoCap:           *memoCap,
		SlowLogSize:       *slowLogSize,
		SlowLogThreshold:  *slowThreshold,
		ShardNode:         *shardNode,
		ClusterNodes:      nodeURLs,
		ClusterShards:     *clusterShards,
		ClusterHedgeDelay: *clusterHedge,
	})
	if *walDir != "" {
		// Recovery first, journaling second: replay drives the ordinary
		// mutation paths, and attaching the journal only afterwards keeps
		// recovered records from being appended a second time.
		n, err := srv.Store().ReplayWAL(*walDir)
		if err != nil {
			fmt.Fprintln(stderr, "cqa-serve: wal replay:", err)
			return 1
		}
		l, err := wal.Open(*walDir)
		if err != nil {
			fmt.Fprintln(stderr, "cqa-serve: wal open:", err)
			return 1
		}
		defer l.Close()
		if *walWarnBytes > 0 {
			warnTo := stderr
			l.SetWarn(*walWarnBytes, func(bytes int64) {
				fmt.Fprintf(warnTo, "cqa-serve wal: journal reached %d bytes (warn threshold %d); consider rotating or compacting\n",
					bytes, *walWarnBytes)
			})
		}
		srv.Store().SetWAL(l)
		fmt.Fprintf(stdout, "cqa-serve wal: replayed %d records from %s (%d databases restored)\n",
			n, *walDir, srv.Store().Len())
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(stdout, "cqa-serve listening on %s (cache %d plans, workers %d)\n",
		*addr, *cacheSize, *workers)
	if *shardNode {
		fmt.Fprintln(stdout, "cqa-serve shard node: serving POST /v1/shard/eval")
	}
	if len(nodeURLs) > 0 {
		width := *clusterShards
		if r := srv.Router(); r != nil {
			width = r.Shards()
		}
		fmt.Fprintf(stdout, "cqa-serve cluster router: %d nodes, %d logical shards, hedge %s\n",
			len(nodeURLs), width, *clusterHedge)
	}
	// The debug surface (pprof, slowlog) binds its own listener so the
	// profiling endpoints never ride the public address. It serves until
	// the process exits; no graceful drain is needed for it.
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(stderr, "cqa-serve: debug listener:", err)
			}
		}()
		defer dbg.Close()
		fmt.Fprintf(stdout, "cqa-serve debug surface (pprof, slowlog) on %s\n", *debugAddr)
	}

	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "cqa-serve:", err)
			return 1
		}
	case <-ctx.Done():
		stop()
		fmt.Fprintln(stdout, "cqa-serve: shutting down...")
		// Flip readiness first so load balancers stop routing new work
		// here while the in-flight requests drain.
		srv.SetDraining(true)
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(stderr, "cqa-serve: shutdown:", err)
			return 1
		}
		<-errc // drain ListenAndServe's ErrServerClosed
		fmt.Fprintln(stdout, "cqa-serve: drained, bye")
	}
	return 0
}
