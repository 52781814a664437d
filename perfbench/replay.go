package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/plancache"
	"cqa/internal/query"
	"cqa/internal/server"
	"cqa/internal/store"
)

// span is one traced call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // position in the replayed stream; -1 for set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. With on false it records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	req   int
	stack []int
	spans []span
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// pass is one sequential replay of the stream against a fresh plan cache
// and store, in the order the server's handlers call the layers.
type pass struct {
	w      *traffic
	cache  *plancache.Cache
	st     *store.Store
	tr     *tracer
	allocs bool // count heap allocations around the engine calls

	totals   []time.Duration // per replayed request
	engine   map[string]*engineStat
	rows     int
	degraded int
	conp     int
	sampled  int
	comps    int
}

type engineStat struct {
	calls  int
	allocs uint64
}

// replaySeq is the replayed stream: the start of the client's stream,
// with one write after every four reads on a workload with a writer. A
// negative entry -k-1 is write k.
func replaySeq(w *traffic) []int {
	seq := w.reads[:w.replayLen]
	if len(w.writes) == 0 {
		return seq
	}
	var out []int
	for i, idx := range seq {
		out = append(out, idx)
		if i%4 == 3 && i/4 < len(w.writes) {
			out = append(out, -(i/4)-1)
		}
	}
	return out
}

func newPass(w *traffic, tr *tracer, allocs bool) (*pass, error) {
	p := &pass{w: w, cache: plancache.New(0), st: store.New(), tr: tr, allocs: allocs, engine: map[string]*engineStat{}}
	tr.req = -1
	for _, u := range w.uploads {
		tr.begin("setup")
		tr.begin("store.put")
		snap, err := p.st.PutFacts(u.name, u.text)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("store %s: %w", u.name, err)
		}
		tr.begin("store.index_build")
		snap.Index()
		tr.end()
		tr.end()
	}
	return p, nil
}

func (p *pass) run() error {
	for i, idx := range replaySeq(p.w) {
		p.tr.req = i
		t := time.Now()
		var err error
		if idx < 0 {
			err = p.write(&p.w.writes[-idx-1])
		} else {
			err = p.request(&p.w.pool[idx])
		}
		p.totals = append(p.totals, time.Since(t))
		if err != nil {
			return err
		}
	}
	return nil
}

// compile mirrors plancache.Cache.GetOrCompile through its public parts,
// so normalization and a miss's compilation get spans of their own.
func (p *pass) compile(text string) (*core.Plan, error) {
	p.tr.begin("plancache.get_or_compile")
	defer p.tr.end()
	p.tr.begin("core.normalize")
	q, key, err := core.Normalize(text)
	p.tr.end()
	if err != nil {
		return nil, err
	}
	p.tr.begin("plancache.lookup")
	plan, hit := p.cache.Get(key)
	p.tr.end()
	if hit {
		return plan, nil
	}
	p.tr.begin("core.compile")
	plan, err = core.Compile(q)
	p.tr.end()
	if err != nil {
		return nil, err
	}
	p.cache.Put(key, plan)
	return plan, nil
}

// index resolves the request's database as the handler does: the stored
// snapshot and its cached index, or the inline facts parsed and indexed.
func (p *pass) index(r *request, plan *core.Plan) (*match.Index, error) {
	if r.db != "" {
		p.tr.begin("store.get")
		snap, ok := p.st.Get(r.db)
		p.tr.end()
		if !ok {
			return nil, fmt.Errorf("unknown database %q", r.db)
		}
		p.tr.begin("store.index")
		ix := snap.Index()
		p.tr.end()
		return ix, nil
	}
	p.tr.begin("db.parse")
	d, err := db.ParseFacts(plan.Query.Schema(), r.facts)
	if err == nil && !d.ConsistentFor() {
		err = fmt.Errorf("inline facts violate a mode-c key")
	}
	p.tr.end()
	if err != nil {
		return nil, err
	}
	p.tr.begin("match.index")
	ix := match.NewIndex(d)
	p.tr.end()
	return ix, nil
}

// call runs one engine call under its span, counting its allocations on
// an allocation pass.
func (p *pass) call(name string, f func() error) error {
	st := p.engine[name]
	if st == nil {
		st = &engineStat{}
		p.engine[name] = st
	}
	st.calls++
	var before runtime.MemStats
	if p.allocs {
		runtime.ReadMemStats(&before)
	}
	p.tr.begin(name)
	err := f()
	p.tr.end()
	if p.allocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		st.allocs += after.Mallocs - before.Mallocs
	}
	return err
}

func (p *pass) request(r *request) error {
	p.tr.begin("request")
	defer p.tr.end()
	plan, err := p.compile(r.query)
	if err != nil || r.kind == kindClassify {
		return err
	}
	ix, err := p.index(r, plan)
	if err != nil {
		return err
	}
	// The server's defaults: deadline, step and memo budgets, and
	// degradation of an exhausted coNP search to sampling.
	opts := core.Options{MaxSteps: server.DefaultMaxSteps, MemoCap: server.DefaultMemoCap, Approximate: true}
	ctx, cancel := context.WithTimeout(context.Background(), server.DefaultEvalTimeout)
	defer cancel()
	switch r.kind {
	case kindCertain:
		engine := plan.Engine(opts)
		return p.call("core.certain_"+engine.String(), func() error {
			res, err := plan.CertainIndexedCtx(ctx, ix, opts)
			if engine == core.EngineCoNP {
				p.conp++
				if res.Approximate {
					p.degraded++
				}
			}
			return err
		})
	case kindAnswers:
		free := make([]query.Var, len(r.free))
		for i, v := range r.free {
			free[i] = query.Var(v)
		}
		return p.call("core.answers", func() error {
			vals, err := plan.CertainAnswersIndexedCtx(ctx, free, ix, opts)
			p.rows += len(vals)
			return err
		})
	case kindCount:
		return p.call("counting.count", func() error {
			res, err := plan.CountIndexedCtx(ctx, ix, opts)
			p.comps += res.Components
			p.sampled += res.Sampled
			return err
		})
	}
	return nil
}

// write mirrors the mutate handler: parse the delta (deletes, upserts,
// inserts), then apply it through the store's group commit.
func (p *pass) write(r *request) error {
	p.tr.begin("write")
	defer p.tr.end()
	p.tr.begin("db.parse_delta")
	var delta db.Delta
	var err error
	parse := func(line string) db.Fact {
		f, e := db.ParseFact(nil, line)
		if e != nil && err == nil {
			err = e
		}
		return f
	}
	for _, line := range r.delete {
		delta.Delete(parse(line))
	}
	for _, blk := range r.upsert {
		fs := make([]db.Fact, len(blk))
		for i, line := range blk {
			fs[i] = parse(line)
		}
		delta.UpsertBlock(fs)
	}
	for _, line := range r.insert {
		delta.Insert(parse(line))
	}
	p.tr.end()
	if err != nil {
		return err
	}
	p.tr.begin("store.apply")
	_, _, err = p.st.ApplyDelta(r.db, delta)
	p.tr.end()
	return err
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls int
	self  time.Duration
}

// replayReport is the outcome of the three replay passes.
type replayReport struct {
	traced, plain, alloc *pass
	spans                []span
	layers               map[string]*layerStat
	reqTotal             time.Duration // sum of the request root spans
	reqSelf              time.Duration // their self time: work outside every layer
	layerSelf            time.Duration // self time of every span below a root
}

// replay runs the stream three times: traced, untraced (the tracing
// overhead is the difference), and once more counting allocations.
func replay(w *traffic) (*replayReport, error) {
	run := func(tr *tracer, allocs bool) (*pass, error) {
		runtime.GC()
		p, err := newPass(w, tr, allocs)
		if err != nil {
			return nil, err
		}
		return p, p.run()
	}
	rep := &replayReport{layers: map[string]*layerStat{}}
	var err error
	tr := &tracer{on: true, t0: time.Now()}
	if rep.traced, err = run(tr, false); err != nil {
		return nil, err
	}
	if rep.plain, err = run(&tracer{}, false); err != nil {
		return nil, err
	}
	if rep.alloc, err = run(&tracer{}, true); err != nil {
		return nil, err
	}
	rep.spans = tr.spans
	child := make([]time.Duration, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range tr.spans {
		d := time.Duration(s.End - s.Start)
		self := d - child[i]
		ls := rep.layers[s.Name]
		if ls == nil {
			ls = &layerStat{}
			rep.layers[s.Name] = ls
		}
		ls.calls++
		ls.self += self
		if s.Req < 0 {
			continue
		}
		if s.Parent < 0 {
			rep.reqTotal += d
			rep.reqSelf += self
		} else {
			rep.layerSelf += self
		}
	}
	return rep, nil
}

// selfTolerance bounds the share of a traced request's time that no
// layer span covers: the replay's own glue between calls.
const selfTolerance = 0.05

func (r *replayReport) print() {
	names := make([]string, 0, len(r.layers))
	for n := range r.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("traced replay: %d requests, %d spans; per-layer self time (request share of %.3f ms total)\n",
		len(r.traced.totals), len(r.spans), float64(r.reqTotal)/1e6)
	fmt.Printf("  %-26s %8s %12s %12s %8s\n", "span", "calls", "self_ms", "mean_us", "share")
	for _, n := range names {
		l := r.layers[n]
		share := "-"
		if n != "setup" && n != "store.put" && n != "store.index_build" && r.reqTotal > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(l.self)/float64(r.reqTotal))
		}
		fmt.Printf("  %-26s %8d %12.3f %12.1f %8s\n", n, l.calls, float64(l.self)/1e6, float64(l.self)/1e3/float64(l.calls), share)
	}
	sum := r.layerSelf + r.reqSelf
	fmt.Printf("self-time check: layers %.3f ms + outside layers %.3f ms = %.3f ms vs request total %.3f ms; outside share %.2f%% (tolerance %.0f%%): %s\n",
		float64(r.layerSelf)/1e6, float64(r.reqSelf)/1e6, float64(sum)/1e6, float64(r.reqTotal)/1e6,
		100*r.unaccounted(), 100*selfTolerance, map[bool]string{true: "ok", false: "EXCEEDED"}[r.unaccounted() <= selfTolerance])
	fmt.Printf("tracing overhead: traced %.4f ms/request, untraced %.4f ms/request; median per-request ratio %+.2f%%\n",
		meanMs(r.traced.totals), meanMs(r.plain.totals), 100*r.overhead())
}

func (r *replayReport) unaccounted() float64 {
	if r.reqTotal == 0 {
		return 0
	}
	return float64(r.reqSelf) / float64(r.reqTotal)
}

// overhead is the median over the stream of each request's traced time
// over its untraced time, minus one: a median, so a stall in either pass
// does not decide it.
func (r *replayReport) overhead() float64 {
	var ratios []float64
	for i, t := range r.traced.totals {
		if i < len(r.plain.totals) && r.plain.totals[i] > 0 {
			ratios = append(ratios, float64(t)/float64(r.plain.totals[i]))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios) - 1
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s) / 1e6 / float64(len(ds))
}

func (r *replayReport) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanOf is the mean self time of the named spans, in unit.
func (r *replayReport) meanOf(name string, unit time.Duration) float64 {
	l := r.layers[name]
	if l == nil || l.calls == 0 {
		return 0
	}
	return float64(l.self) / float64(unit) / float64(l.calls)
}

func (r *replayReport) allocsPer(name string) float64 {
	st := r.alloc.engine[name]
	if st == nil || st.calls == 0 {
		return 0
	}
	return float64(st.allocs) / float64(st.calls)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the per-layer metrics of a traced run. A layer the
// workload never reaches reports 0.
func layerMetrics(res *result, rep *replayReport, m map[string]metric) {
	ms, us := time.Millisecond, time.Microsecond
	// Mean traced pipeline time of the replayed read requests (writes
	// have roots of their own).
	var pipe time.Duration
	reads := 0
	for _, s := range rep.spans {
		if s.Parent < 0 && s.Req >= 0 && s.Name == "request" {
			pipe += time.Duration(s.End - s.Start)
			reads++
		}
	}
	c := res.counters
	m["server.overhead_ms"] = metric{res.meanReadMs - ratio(float64(pipe)/1e6, float64(reads)), "ms"}
	m["server.cpu_ms_per_req"] = metric{ratio(res.cpuMs, float64(res.attempted)), "ms"}
	m["server.shed_ratio"] = metric{ratio(max(float64(res.shed), c["cqa_requests_shed_total"]), float64(res.attempted)), "ratio"}
	m["plancache.hit_ratio"] = metric{ratio(c["cqa_plancache_hits_total"], c["cqa_plancache_hits_total"]+c["cqa_plancache_misses_total"]), "ratio"}
	m["plancache.normalize_us"] = metric{rep.meanOf("core.normalize", us), "us"}
	m["plancache.compile_ms"] = metric{rep.meanOf("core.compile", ms), "ms"}
	m["db.parse_ms"] = metric{rep.meanOf("db.parse", ms), "ms"}
	m["match.index_ms"] = metric{rep.meanOf("match.index", ms), "ms"}
	m["store.put_ms"] = metric{rep.meanOf("store.put", ms), "ms"}
	m["store.index_ms"] = metric{rep.meanOf("store.index_build", ms), "ms"}
	m["store.apply_ms"] = metric{rep.meanOf("store.apply", ms), "ms"}
	m["store.versions_per_write"] = metric{res.versions, "ratio"}
	m["store.indexcache_hit_ratio"] = metric{ratio(c["cqa_indexcache_hits_total"], c["cqa_indexcache_hits_total"]+c["cqa_indexcache_misses_total"]), "ratio"}
	m["core.certain_fo_ms"] = metric{rep.meanOf("core.certain_fo", ms), "ms"}
	m["core.certain_fo_allocs_per_req"] = metric{rep.allocsPer("core.certain_fo"), "count"}
	m["core.answers_ms"] = metric{rep.meanOf("core.answers", ms), "ms"}
	m["core.answers_allocs_per_req"] = metric{rep.allocsPer("core.answers"), "count"}
	answers := 0
	if st := rep.traced.engine["core.answers"]; st != nil {
		answers = st.calls
	}
	m["core.answers_rows_per_req"] = metric{ratio(float64(rep.traced.rows), float64(answers)), "count"}
	m["core.certain_ptime_ms"] = metric{rep.meanOf("core.certain_ptime", ms), "ms"}
	m["core.certain_conp_ms"] = metric{rep.meanOf("core.certain_conp", ms), "ms"}
	m["core.degraded_ratio"] = metric{ratio(float64(rep.traced.degraded), float64(rep.traced.conp)), "ratio"}
	m["counting.count_ms"] = metric{rep.meanOf("counting.count", ms), "ms"}
	m["counting.sampled_ratio"] = metric{ratio(float64(rep.traced.sampled), float64(rep.traced.comps)), "ratio"}
	m["loadgen.late_p99_ms"] = metric{quantile(res.late, 0.99), "ms"}
	m["trace.overhead_ratio"] = metric{rep.overhead(), "ratio"}
	m["trace.unaccounted_ratio"] = metric{rep.unaccounted(), "ratio"}
}
