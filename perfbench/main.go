// Command perfbench is the repository's serving benchmark. It starts
// cqa-serve as a child process, uploads seeded generated databases, and
// drives one workload over loopback HTTP from one closed-loop client (and,
// on write-read, one open-loop writer), checking
// every response against an expected value fixed at generation time.
// With -trace 1 it also replays the same seeded request stream in
// process through the layers' public functions, one span per call, and
// reports per-layer metrics.
//
// Usage (run.sh builds the binaries and passes -serve and -out):
//
//	perfbench -serve cqa-serve -out dir -workload serve-fo -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// instances is how many fresh servers an untraced run sets up. setup_s
// is the median of their set-up times, and each server carries an equal
// share of the measured window, so a server process's own luck (heap
// layout, map iteration order) and a burst of outside load each move one
// share only. The traced run uses one server.
const instances = 5

// warmup runs the load on each server before its share of the window, so
// caches fill and the plan cache reaches its steady hit ratio.
const warmup = time.Second

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "serve-fo", "workload: serve-fo, serve-hard, compile-churn or write-read")
	seed := flag.Int64("seed", 1, "seed of the generated databases and request streams")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	traceMode := flag.Int("trace", 0, "1: report per-layer metrics from /metrics, /proc and a traced in-process replay")
	serve := flag.String("serve", "", "path of the cqa-serve binary")
	out := flag.String("out", ".bench_build", "directory for span dumps")
	flag.Parse()
	if *serve == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -serve and a positive -seconds are required")
		return 2
	}
	w, err := generate(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	n := instances
	if *traceMode == 1 {
		n = 1
	}
	res, err := measure(w, *serve, time.Duration(*seconds)*time.Second, n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(w)
	metrics := map[string]metric{}
	if *traceMode == 1 {
		rep, err := replay(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: replay:", err)
			return 1
		}
		rep.print()
		path := filepath.Join(*out, "spans", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		if err := rep.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
		layerMetrics(res, rep, metrics)
	} else {
		endToEnd(res, w, metrics)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.errs.n == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one measured HTTP run over one or more servers.
type result struct {
	setupS     []float64
	window     time.Duration
	lat        [numKinds]latencies
	meanReadMs float64
	reads      int     // successful closed-loop requests in the window
	rps        float64 // middle mean over the servers of reads per second
	attempted  int
	failed     int
	shed       int
	errs       errorLog
	rssMB      float64 // largest peak resident set of the servers
	cpuMs      float64 // server CPU over the window
	counters   map[string]float64
	late       []float64
	versions   float64 // database versions per acknowledged write
}

// setupServer starts the server, uploads the databases, waits for
// readiness and answers the first request of each database.
func setupServer(ctx context.Context, w *traffic, bin string, chk *checker) (*child, time.Duration, error) {
	t := time.Now()
	c, err := startChild(bin)
	if err != nil {
		return nil, 0, err
	}
	for _, u := range w.uploads {
		if err := c.put(u.name, u.text); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	if err := c.waitReady(ctx); err != nil {
		c.stop()
		return nil, 0, err
	}
	p := &poster{client: c.admin, base: c.base, chk: chk}
	for _, i := range w.probes {
		body, _, err := p.send(&w.pool[i])
		if err == nil {
			_, err = chk.check(&w.pool[i], i, body)
		}
		if err != nil {
			c.stop()
			return nil, 0, fmt.Errorf("set-up probe: %w", err)
		}
	}
	return c, time.Since(t), nil
}

// measure sets up n servers in turn and drives the workload on each
// through a warm-up and an n-th of the measured window. Latencies are
// pooled per distinct request over all servers; throughput is the middle
// mean of the servers' rates.
func measure(w *traffic, bin string, window time.Duration, n int) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	res := &result{window: window, counters: map[string]float64{}}
	chk := newChecker()
	share := window / time.Duration(n)
	byReq := map[int][]float64{}
	var rates, readMs []float64
	versions, acked := 0, 0
	for i := 0; i < n; i++ {
		c, d, err := setupServer(ctx, w, bin, chk)
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, d.Seconds())
		s, err := runShare(ctx, c, w, chk, share, res)
		c.stop()
		if err != nil {
			return nil, err
		}
		reads := 0
		for ref, xs := range s.byReq {
			byReq[ref] = append(byReq[ref], xs...)
			if ref >= 0 {
				reads += len(xs)
				readMs = append(readMs, xs...)
			}
		}
		res.reads += reads
		rates = append(rates, float64(reads)/share.Seconds())
		versions += s.versions
		acked += s.acked
	}
	res.rps = middleMean(rates)
	if len(readMs) > 0 {
		res.meanReadMs = mean(readMs)
	}
	if acked > 0 {
		res.versions = float64(versions) / float64(acked)
	}
	sort.Float64s(res.late)

	// Pooled latencies give the p90 and tail of each kind; each distinct
	// request's own median gives req50, so a mix of cheap and dear
	// requests does not put the median in the gap between them.
	var ms, logs [numKinds][]float64
	for ref, xs := range byReq {
		k := kindMutate
		if ref >= 0 {
			k = w.pool[ref].kind
		}
		ms[k] = append(ms[k], xs...)
		logs[k] = append(logs[k], math.Log(summarize(xs).p50))
	}
	for k := range ms {
		res.lat[k] = summarize(ms[k])
		if len(logs[k]) > 0 {
			res.lat[k].reqs = len(logs[k])
			res.lat[k].req50 = math.Exp(mean(logs[k]))
		}
	}
	return res, nil
}

// shareResult is what one server's share of the window adds to a run
// besides the counts runShare accumulates in the result.
type shareResult struct {
	byReq    map[int][]float64 // successful latencies by pool index; -1: writes
	versions int               // distinct versions the writes were acknowledged at
	acked    int
}

// runShare drives the workload on server c through a warm-up and one
// share of the measured window. It adds the share's attempts, failures,
// counters, CPU, peak memory and write lateness to res.
func runShare(ctx context.Context, c *child, w *traffic, chk *checker, share time.Duration, res *result) (*shareResult, error) {
	// Counters and CPU are read at the window's edges, off the load's
	// connections.
	type edge struct {
		counters map[string]float64
		ticks    int64
		err      error
	}
	edges := make(chan edge, 2)
	t0 := time.Now()
	end := warmup + share
	go func() {
		for _, at := range []time.Duration{warmup, end} {
			time.Sleep(time.Until(t0.Add(at)))
			var e edge
			if e.ticks, e.err = cpuTicks(c.pid()); e.err == nil {
				e.counters, e.err = c.scrape()
			}
			edges <- e
		}
	}()
	p := &poster{client: loadClient(), base: c.base, chk: chk}
	samples, acks, late := drive(ctx, p, w, t0, end, &res.errs)
	p.client.CloseIdleConnections()
	first, last := <-edges, <-edges
	if first.err != nil || last.err != nil {
		return nil, fmt.Errorf("read server counters: %v %v", first.err, last.err)
	}
	rss, err := peakRSSMB(c.pid())
	if err != nil {
		return nil, err
	}
	res.rssMB = max(res.rssMB, rss)
	res.cpuMs += float64(time.Duration(last.ticks-first.ticks)*clockTick) / 1e6
	for k, v := range last.counters {
		res.counters[k] += v - first.counters[k]
	}

	s := &shareResult{byReq: map[int][]float64{}}
	for _, sm := range samples {
		in := sm.start >= warmup && sm.end <= end
		if sm.kind == kindMutate {
			in = sm.start >= warmup && sm.start < end // a write's start is its due time
		}
		if !in {
			continue
		}
		res.attempted++
		switch {
		case sm.status == 429:
			res.shed++
			res.failed++
		case sm.status/100 != 2 || sm.wrong:
			res.failed++
		default:
			s.byReq[sm.ref] = append(s.byReq[sm.ref], sm.ms)
		}
	}
	for _, d := range late {
		res.late = append(res.late, float64(d)/1e6)
	}
	// The versions this server reported, its set-up probes' included.
	res.failed += checkVersions(w.model, acks, chk.takeVersions(), &res.errs)
	seen := map[uint64]bool{}
	for _, v := range acks {
		if v > 0 {
			seen[v] = true
			s.acked++
		}
	}
	s.versions = len(seen)
	return s, nil
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// middleMean is the mean of xs without its smallest and largest value,
// or of all of xs when it has fewer than three.
func middleMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	return mean(s)
}

// print reports the run with the per-endpoint metric names.
func (r *result) print(w *traffic) {
	fmt.Printf("workload %s: server flags %v, flat evaluation, no WAL (no flush policy), 1 closed-loop client, %d server(s) of %s each\n",
		w.name, serverFlags, len(r.setupS), r.window/time.Duration(len(r.setupS)))
	if len(w.writes) > 0 {
		fmt.Printf("open-loop writer: one write every %s, timed from its due time\n", w.writeEvery)
	}
	fmt.Printf("metric setup_s %.4f s (median of %d set-ups)\n", median(r.setupS), len(r.setupS))
	fmt.Printf("metric throughput_rps %.2f req/s (middle mean over the servers; %d closed-loop requests in %s)\n", r.rps, r.reads, r.window)
	for k := kind(0); k < numKinds; k++ {
		l := r.lat[k]
		if l.n == 0 {
			continue
		}
		fmt.Printf("metric %s_p50_ms %.4f ms (geometric mean over %d distinct requests of each one's median; pooled median %.4f ms)\n",
			kindNames[k], l.req50, l.reqs, l.p50)
		fmt.Printf("metric %s_p90_ms %.4f ms (p90 of all %d requests of the kind)\n", kindNames[k], l.p90, l.n)
		fmt.Printf("metric %s_tail_ms %.4f ms (%s of the window, n=%d)\n", kindNames[k], l.tail, l.tailName, l.n)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("metric error_ratio %g ratio (%d of %d attempted)\n", ratio, r.failed, r.attempted)
	fmt.Printf("metric server_rss_mb %.2f MB (largest VmHWM of the servers)\n", r.rssMB)
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		switch k {
		case "cqa_plancache_hits_total", "cqa_plancache_misses_total", "cqa_indexcache_hits_total",
			"cqa_indexcache_misses_total", "cqa_requests_shed_total", "cqa_degraded_answers_total",
			"cqa_db_mutations_total", "cqa_count_exact_total", "cqa_count_approx_total":
			fmt.Printf("window /metrics %s +%g\n", k, r.counters[k])
		}
	}
	for _, m := range r.errs.msgs {
		fmt.Printf("error: %s\n", m)
	}
}

// endToEnd fills the metrics of an untraced run.
func endToEnd(r *result, w *traffic, m map[string]metric) {
	m["setup_s"] = metric{median(r.setupS), "s"}
	m["throughput_rps"] = metric{r.rps, "req/s"}
	m["certain_p50_ms"] = metric{r.lat[kindCertain].req50, "ms"}
	m["certain_p90_ms"] = metric{r.lat[kindCertain].p90, "ms"}
	m["focus_p50_ms"] = metric{r.lat[w.focus].req50, "ms"}
	m["server_rss_mb"] = metric{r.rssMB, "MB"}
}
