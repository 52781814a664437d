package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cqa/internal/catalog"
	"cqa/internal/workload"
)

// loadJob is one prepared request of the load mix.
type loadJob struct {
	name     string
	endpoint string // "certain", "classify", or "mutate"
	body     []byte
	// db is the target database name; used by mutate jobs, whose URL is
	// /v1/db/{db}/facts rather than /v1/{endpoint}.
	db string
	// traced opts this request into X-CQA-Trace stage tracing; the
	// returned breakdown is aggregated into the summary.
	traced bool
}

// stageMicros is one aggregated stage row decoded from a traced response.
type stageMicros struct {
	stage string
	spans int64
	us    int64
}

// loadResult is one completed request (including any retries).
type loadResult struct {
	endpoint string
	latency  time.Duration
	err      bool
	retries  int  // attempts beyond the first
	shed     bool // at least one attempt was refused with 429
	// unavail marks at least one 503 attempt — the shard_unavailable
	// taxonomy (a shard or cluster node down), distinct from 429
	// admission shedding: shedding means this instance is saturated,
	// unavailability means the evaluation tier lost capacity.
	unavail bool
	// stages holds the server-side stage breakdown for traced requests.
	stages []stageMicros
}

// RunLoad implements cqa-load: it uploads generated databases for the
// catalog and workload query families, replays certain/classify traffic
// against a running cqa-serve at a target QPS, and prints a latency and
// throughput summary. With -probe it instead measures cold-vs-warm
// plan-cache latency per query.
func RunLoad(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cqa-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:8334", "base URL of the cqa-serve instance")
	qps := fs.Int("qps", 200, "target requests per second")
	duration := fs.Duration("duration", 5*time.Second, "load duration")
	concurrency := fs.Int("concurrency", 16, "concurrent client workers")
	seed := fs.Int64("seed", 1, "random seed for generated databases")
	classifyFrac := fs.Float64("classify", 0.25, "fraction of requests that hit /v1/classify")
	traceFrac := fs.Float64("trace", 0, "fraction of certain requests that opt into X-CQA-Trace stage tracing (0 = off)")
	writeMix := fs.Float64("write-mix", 0, "fraction of certain requests replaced by POST /v1/db/{name}/facts delta writes (0 = read-only)")
	clusterList := fs.String("cluster", "", "comma-separated shard-node base URLs: replicate every uploaded database to each (a routed deployment needs the data on every node)")
	probe := fs.Bool("probe", false, "measure cold vs warm plan-cache latency per query and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	client := &http.Client{Timeout: 30 * time.Second}
	base := strings.TrimRight(*url, "/")
	var replicas []string
	for _, n := range strings.Split(*clusterList, ",") {
		if n = strings.TrimRight(strings.TrimSpace(n), "/"); n != "" && n != base {
			replicas = append(replicas, n)
		}
	}

	if ok := pingServer(client, base, stderr); !ok {
		return 1
	}
	for _, node := range replicas {
		if ok := pingServer(client, node, stderr); !ok {
			return 1
		}
	}
	jobs, err := prepareLoad(client, base, replicas, *seed, *classifyFrac)
	if err != nil {
		fmt.Fprintln(stderr, "cqa-load:", err)
		return 1
	}
	if len(replicas) > 0 {
		fmt.Fprintf(stdout, "prepared %d request shapes against %s (databases replicated to %d more nodes)\n",
			len(jobs), base, len(replicas))
	} else {
		fmt.Fprintf(stdout, "prepared %d request shapes against %s\n", len(jobs), base)
	}

	if *probe {
		return runProbe(client, base, jobs, stdout, stderr)
	}

	results := fireAtRate(client, base, jobs, *qps, *duration, *concurrency, *traceFrac, *writeMix)
	summarize(stdout, results, *duration)
	printServerCounters(client, base, stdout)
	return 0
}

func pingServer(client *http.Client, base string, stderr io.Writer) bool {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		fmt.Fprintf(stderr, "cqa-load: cannot reach %s: %v (is cqa-serve running?)\n", base, err)
		return false
	}
	resp.Body.Close()
	return true
}

// prepareLoad uploads one generated database per query of the mix —
// to the primary and to every replica node, since a routed cluster
// deployment requires the data on every node — and returns the request
// shapes the replay loop cycles through. The mix is every catalog
// entry plus workload-generated family queries, so all three engines
// (fo, ptime, conp) see traffic.
func prepareLoad(client *http.Client, base string, replicas []string, seed int64, classifyFrac float64) ([]loadJob, error) {
	rng := rand.New(rand.NewSource(seed))
	p := workload.DefaultDBParams()
	p.SeedMatches = 2

	type namedQuery struct {
		name string
		text string
	}
	var queries []namedQuery
	for _, e := range catalog.Entries() {
		queries = append(queries, namedQuery{name: e.Name, text: e.Query})
	}
	for n := 2; n <= 5; n++ {
		queries = append(queries, namedQuery{name: fmt.Sprintf("path-%d", n), text: workload.PathQuery(n).String()})
		queries = append(queries, namedQuery{name: fmt.Sprintf("star-%d", n), text: workload.StarQuery(n).String()})
	}

	var jobs []loadJob
	for i, nq := range queries {
		q, err := parseNormalized(nq.text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", nq.name, err)
		}
		d := workload.RandomDB(rng, q, p)
		dbName := fmt.Sprintf("load-%03d", i)
		facts := d.String() + "\n"
		for _, target := range append([]string{base}, replicas...) {
			req, err := http.NewRequest("PUT", target+"/v1/db/"+dbName, strings.NewReader(facts))
			if err != nil {
				return nil, err
			}
			resp, err := client.Do(req)
			if err != nil {
				return nil, fmt.Errorf("uploading %s to %s: %w", dbName, target, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("uploading %s to %s: %s: %s", dbName, target, resp.Status, bytes.TrimSpace(body))
			}
		}
		certainBody, err := json.Marshal(map[string]string{"query": nq.text, "db": dbName})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, loadJob{name: nq.name, endpoint: "certain", body: certainBody, db: dbName})
		if float64(i%100)/100 < classifyFrac {
			classifyBody, _ := json.Marshal(map[string]string{"query": nq.text})
			jobs = append(jobs, loadJob{name: nq.name, endpoint: "classify", body: classifyBody})
		}
	}
	// Shuffle so endpoint types interleave in the replay cycle.
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// fire issues one request of the load mix, retrying transient failures
// — connection errors (resets, refused) and 5xx/429 responses — with
// exponential backoff plus jitter, honoring a Retry-After hint when the
// server sheds the request. Latency is measured end to end across all
// attempts: a retried request is still one slow request from the
// client's point of view.
func fire(client *http.Client, base string, job loadJob) loadResult {
	const maxAttempts = 4
	res := loadResult{endpoint: job.endpoint}
	start := time.Now()
	backoff := 25 * time.Millisecond
	for attempt := 1; ; attempt++ {
		retryAfter := time.Duration(0)
		retryable := false
		url := base + "/v1/" + job.endpoint
		if job.endpoint == "mutate" {
			url = base + "/v1/db/" + job.db + "/facts"
		}
		req, rerr := http.NewRequest("POST", url, bytes.NewReader(job.body))
		if rerr != nil {
			res.latency = time.Since(start)
			res.err = true
			return res
		}
		req.Header.Set("Content-Type", "application/json")
		if job.traced {
			req.Header.Set("X-CQA-Trace", "1")
		}
		resp, err := client.Do(req)
		if err != nil {
			retryable = true // connection reset/refused, transport timeout
		} else {
			if job.traced && resp.StatusCode == http.StatusOK {
				res.stages = decodeStages(resp.Body)
			} else {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				res.shed = true
				retryable = true
				if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
					retryAfter = time.Duration(secs) * time.Second
				}
			} else if resp.StatusCode >= 500 {
				retryable = true
				if resp.StatusCode == http.StatusServiceUnavailable {
					// 503 shard_unavailable carries the same Retry-After
					// hint as shedding: the shard tier heals on retry, so
					// honor the server's pacing instead of hammering it.
					res.unavail = true
					if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
						retryAfter = time.Duration(secs) * time.Second
					}
				}
			}
		}
		if !retryable {
			res.latency = time.Since(start)
			res.err = resp.StatusCode != http.StatusOK
			return res
		}
		if attempt == maxAttempts {
			res.latency = time.Since(start)
			res.err = true
			return res
		}
		res.retries++
		delay := backoff + time.Duration(rand.Int63n(int64(backoff))) // full jitter on top
		if retryAfter > delay {
			delay = retryAfter
		}
		time.Sleep(delay)
		backoff *= 2
	}
}

// decodeStages pulls the stage breakdown out of a traced response body.
// A response without a trace (or a decode failure) yields nil — the load
// tool must not fail a request over its observability payload.
func decodeStages(r io.Reader) []stageMicros {
	var payload struct {
		Trace *struct {
			Stages []struct {
				Stage string `json:"stage"`
				Spans int64  `json:"spans"`
				Us    int64  `json:"us"`
			} `json:"stages"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(r).Decode(&payload); err != nil || payload.Trace == nil {
		return nil
	}
	out := make([]stageMicros, 0, len(payload.Trace.Stages))
	for _, st := range payload.Trace.Stages {
		out = append(out, stageMicros{stage: st.Stage, spans: st.Spans, us: st.Us})
	}
	return out
}

// fireAtRate replays the jobs round-robin at the target QPS for the
// given duration and collects per-request results. When traceFrac > 0,
// that fraction of certain requests opts into stage tracing.
func fireAtRate(client *http.Client, base string, jobs []loadJob, qps int, duration time.Duration, concurrency int, traceFrac, writeMix float64) []loadResult {
	if qps < 1 {
		qps = 1
	}
	traceEvery := 0
	if traceFrac > 0 {
		traceEvery = int(1 / traceFrac)
		if traceEvery < 1 {
			traceEvery = 1
		}
	}
	writeEvery := 0
	if writeMix > 0 {
		writeEvery = int(1 / writeMix)
		if writeEvery < 1 {
			writeEvery = 1
		}
	}
	interval := time.Second / time.Duration(qps)
	pending := make(chan loadJob, concurrency)
	var mu sync.Mutex
	var results []loadResult
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range pending {
				r := fire(client, base, job)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(duration)
	i, certainSent, writeSeq := 0, 0, 0
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			job := jobs[i%len(jobs)]
			if job.endpoint == "certain" {
				certainSent++
				if writeEvery > 0 && certainSent%writeEvery == 0 {
					// Replace this read with a delta write against the same
					// database: insert a fresh fact into a scratch relation
					// the queries never touch and retire the previous one, so
					// the database stays the same size while every write is a
					// real published version.
					writeSeq++
					job = loadJob{name: job.name, endpoint: "mutate", db: job.db,
						body: []byte(fmt.Sprintf(`{"insert": ["W(w%d | %d)"], "delete": ["W(w%d | %d)"]}`,
							writeSeq, writeSeq, writeSeq-1, writeSeq-1))}
				} else if traceEvery > 0 {
					job.traced = (certainSent-1)%traceEvery == 0
				}
			}
			select {
			case pending <- job:
				i++
			default:
				// All workers busy: the server is saturated; drop the
				// tick rather than queue unboundedly.
			}
		}
	}
	close(pending)
	wg.Wait()
	return results
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func summarize(stdout io.Writer, results []loadResult, elapsed time.Duration) {
	byEndpoint := map[string][]time.Duration{}
	errs, retried, retries, shed, unavail := 0, 0, 0, 0, 0
	for _, r := range results {
		if r.retries > 0 {
			retried++
			retries += r.retries
		}
		if r.shed {
			shed++
		}
		if r.unavail {
			unavail++
		}
		if r.err {
			errs++
			continue
		}
		byEndpoint[r.endpoint] = append(byEndpoint[r.endpoint], r.latency)
	}
	fmt.Fprintf(stdout, "\n%d requests in %s (%.1f req/s achieved), %d errors\n",
		len(results), elapsed, float64(len(results))/elapsed.Seconds(), errs)
	fmt.Fprintf(stdout, "%d requests retried (%d retries total), %d saw 429 shedding, %d saw 503 shard-unavailable\n",
		retried, retries, shed, unavail)
	endpoints := make([]string, 0, len(byEndpoint))
	for ep := range byEndpoint {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	fmt.Fprintf(stdout, "%-10s %8s %10s %10s %10s %10s %10s\n",
		"endpoint", "count", "min", "p50", "p90", "p99", "max")
	for _, ep := range endpoints {
		ls := byEndpoint[ep]
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		fmt.Fprintf(stdout, "%-10s %8d %10s %10s %10s %10s %10s\n",
			ep, len(ls),
			ls[0].Round(time.Microsecond),
			percentile(ls, 0.50).Round(time.Microsecond),
			percentile(ls, 0.90).Round(time.Microsecond),
			percentile(ls, 0.99).Round(time.Microsecond),
			ls[len(ls)-1].Round(time.Microsecond))
	}
	summarizeStages(stdout, results)
}

// summarizeStages aggregates the server-side stage breakdowns returned
// by traced requests (the -trace flag) into one table, heaviest stage
// first. Silent when nothing was traced.
func summarizeStages(stdout io.Writer, results []loadResult) {
	type agg struct {
		spans, us int64
	}
	byStage := map[string]*agg{}
	traced := 0
	for _, r := range results {
		if r.stages == nil {
			continue
		}
		traced++
		for _, st := range r.stages {
			a := byStage[st.stage]
			if a == nil {
				a = &agg{}
				byStage[st.stage] = a
			}
			a.spans += st.spans
			a.us += st.us
		}
	}
	if traced == 0 {
		return
	}
	stages := make([]string, 0, len(byStage))
	for st := range byStage {
		stages = append(stages, st)
	}
	sort.Slice(stages, func(i, j int) bool { return byStage[stages[i]].us > byStage[stages[j]].us })
	fmt.Fprintf(stdout, "\nstage breakdown from %d traced requests:\n", traced)
	fmt.Fprintf(stdout, "%-12s %8s %12s %12s\n", "stage", "spans", "total(us)", "mean(us)")
	for _, st := range stages {
		a := byStage[st]
		mean := float64(0)
		if a.spans > 0 {
			mean = float64(a.us) / float64(a.spans)
		}
		fmt.Fprintf(stdout, "%-12s %8d %12d %12.1f\n", st, a.spans, a.us, mean)
	}
}

// runProbe measures, per query shape, the cold first /v1/classify (plan
// compiled) against warm repeats (plan served from the cache), printing
// the aggregate speedup. The probe talks to a live server, so run it
// against a freshly started cqa-serve for a truly cold cache.
func runProbe(client *http.Client, base string, jobs []loadJob, stdout, stderr io.Writer) int {
	const warmReps = 20
	var colds, warms []time.Duration
	for _, job := range jobs {
		if job.endpoint != "certain" {
			continue
		}
		classifyBody := job.body // {"query":..., "db":...}: extra field is ignored
		cold := fire(client, base, loadJob{endpoint: "classify", body: classifyBody})
		if cold.err {
			fmt.Fprintf(stderr, "cqa-load: probe %s failed\n", job.name)
			return 1
		}
		colds = append(colds, cold.latency)
		best := time.Duration(1 << 62)
		for i := 0; i < warmReps; i++ {
			warm := fire(client, base, loadJob{endpoint: "classify", body: classifyBody})
			if !warm.err && warm.latency < best {
				best = warm.latency
			}
		}
		warms = append(warms, best)
	}
	sort.Slice(colds, func(i, j int) bool { return colds[i] < colds[j] })
	sort.Slice(warms, func(i, j int) bool { return warms[i] < warms[j] })
	pc, pw := percentile(colds, 0.5), percentile(warms, 0.5)
	fmt.Fprintf(stdout, "plan-cache probe over %d queries (/v1/classify):\n", len(colds))
	fmt.Fprintf(stdout, "  cold (compile): p50 %s, max %s\n", pc.Round(time.Microsecond), colds[len(colds)-1].Round(time.Microsecond))
	fmt.Fprintf(stdout, "  warm (cached):  p50 %s, max %s\n", pw.Round(time.Microsecond), warms[len(warms)-1].Round(time.Microsecond))
	if pw > 0 {
		fmt.Fprintf(stdout, "  p50 speedup: %.1fx\n", float64(pc)/float64(pw))
	}
	return 0
}

func printServerCounters(client *http.Client, base string, stdout io.Writer) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return
	}
	fmt.Fprintln(stdout, "\nserver counters:")
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "cqa_plancache_") || strings.HasPrefix(line, "cqa_store_") ||
			strings.HasPrefix(line, "cqa_db_mutations_") ||
			strings.HasPrefix(line, "cqa_requests_shed_") || strings.HasPrefix(line, "cqa_request_timeouts_") ||
			strings.HasPrefix(line, "cqa_panics_recovered_") || strings.HasPrefix(line, "cqa_degraded_") {
			fmt.Fprintf(stdout, "  %s\n", line)
		}
	}
}
