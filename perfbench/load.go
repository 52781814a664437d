package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// response holds the fields of every endpoint's reply the checks read.
type response struct {
	Certain        *bool               `json:"certain"`
	Answers        []map[string]string `json:"answers"`
	Count          int                 `json:"count"`
	Query          string              `json:"query"`
	Class          string              `json:"class"`
	HasCycle       bool                `json:"hasCycle"`
	HasStrongCycle bool                `json:"hasStrongCycle"`
	Satisfying     string              `json:"satisfying"`
	Total          string              `json:"total"`
	Fraction       float64             `json:"fraction"`
	Confidence     float64             `json:"confidence"`
	Exact          bool                `json:"exact"`
	Components     int                 `json:"components"`
	Sampled        int                 `json:"sampled"`
	DB             *struct {
		Version uint64 `json:"version"`
	} `json:"db"`
}

// observed is what a versioned (write-read) response said, checked
// against the model once every write is acknowledged.
type observed struct {
	kind    kind
	ref     int
	version uint64
	certain bool
	dig     digest
}

// checker verifies responses. A body already verified for the same
// request is accepted by its hash, so repeated identical responses cost
// one hash instead of a decode.
type checker struct {
	mu       sync.Mutex
	seed     maphash.Seed
	verified map[[2]uint64]bool
	versions []observed
}

func newChecker() *checker {
	return &checker{seed: maphash.MakeSeed(), verified: map[[2]uint64]bool{}}
}

// check verifies one response of pool request idx (or write idx, for
// mutates) and returns the version it reports.
func (c *checker) check(r *request, idx int, body []byte) (uint64, error) {
	key := [2]uint64{uint64(idx), maphash.Bytes(c.seed, body)}
	if !r.want.versioned && r.kind != kindMutate {
		c.mu.Lock()
		ok := c.verified[key]
		c.mu.Unlock()
		if ok {
			return 0, nil
		}
	}
	var resp response
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode %s response: %w", kindNames[r.kind], err)
	}
	var version uint64
	if resp.DB != nil {
		version = resp.DB.Version
	}
	if r.kind == kindMutate {
		if version == 0 {
			return 0, fmt.Errorf("mutate response without a version")
		}
		return version, nil
	}
	if r.want.versioned {
		ob := observed{kind: r.kind, ref: r.want.ref, version: version}
		switch {
		case version == 0:
			return 0, fmt.Errorf("%s response without a version", kindNames[r.kind])
		case r.kind == kindCertain && resp.Certain == nil:
			return 0, fmt.Errorf("certain response without a verdict")
		case r.kind == kindCertain:
			ob.certain = *resp.Certain
		default:
			ob.dig = answersDigest(resp.Answers)
		}
		c.mu.Lock()
		c.versions = append(c.versions, ob)
		c.mu.Unlock()
		return version, nil
	}
	if err := verify(r, &resp); err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.verified[key] = true
	c.mu.Unlock()
	return version, nil
}

// takeVersions returns the versioned reads observed so far and forgets
// them.
func (c *checker) takeVersions() []observed {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.versions
	c.versions = nil
	return v
}

func answersDigest(answers []map[string]string) digest {
	d := digest{n: len(answers)}
	for _, b := range answers {
		d.sum += bindingHash(b)
	}
	return d
}

// verify compares a decoded response with the request's expected value.
func verify(r *request, resp *response) error {
	w := r.want
	switch r.kind {
	case kindCertain:
		if resp.Certain == nil || *resp.Certain != w.certain {
			return fmt.Errorf("certain %q on %s: got %v, want %v", r.query, r.db, resp.Certain != nil && *resp.Certain, w.certain)
		}
	case kindAnswers:
		d := answersDigest(resp.Answers)
		if d.n != w.rows || d.sum != w.digest || resp.Count != w.rows {
			return fmt.Errorf("answers %q: got %d bindings, want %d (or a different set)", r.query, d.n, w.rows)
		}
	case kindClassify:
		class := map[string]bool{"FO": !resp.HasCycle, `P\FO`: resp.HasCycle && !resp.HasStrongCycle,
			"coNP-complete": resp.HasStrongCycle}
		if resp.Query != w.canonical || !class[resp.Class] || (resp.HasStrongCycle && !resp.HasCycle) {
			return fmt.Errorf("classify %q: got query %q class %q (cycle %v, strong %v)",
				r.query, resp.Query, resp.Class, resp.HasCycle, resp.HasStrongCycle)
		}
	case kindCount:
		c := w.count
		ok := resp.Total == c.total && resp.Components == c.components && resp.Sampled == c.sampled
		if c.satisfying != "" {
			ok = ok && resp.Exact && resp.Satisfying == c.satisfying
		} else {
			ok = ok && !resp.Exact && math.Abs(resp.Fraction-c.fraction) <= resp.Confidence+1e-9
		}
		if !ok {
			return fmt.Errorf("count on %s: got total %.20s components %d sampled %d exact %v fraction %g",
				r.db, resp.Total, resp.Components, resp.Sampled, resp.Exact, resp.Fraction)
		}
	}
	return nil
}

// sample is one completed request.
type sample struct {
	kind       kind
	ref        int           // pool index; for writes, -1 - deltaKind
	start, end time.Duration // offsets from the run's start
	ms         float64       // latency; for writes, from the due time
	status     int           // 0 on a transport error
	wrong      bool
}

// poster sends requests over the load's connections.
type poster struct {
	client *http.Client
	base   string
	chk    *checker
}

// loadClient returns a client that opens at most two connections.
func loadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// send posts r and returns the body on a 2xx.
func (p *poster) send(r *request) ([]byte, int, error) {
	resp, err := p.client.Post(p.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode/100 != 2 {
		return body, resp.StatusCode, fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.StatusCode, nil
}

// errorLog keeps the first few failures for the report.
type errorLog struct {
	mu   sync.Mutex
	msgs []string
	n    int
}

func (e *errorLog) add(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	if len(e.msgs) < 5 {
		e.msgs = append(e.msgs, err.Error())
	}
}

// drive runs the workload's closed-loop client and open-loop writer
// from t0 until end and returns every completed request, plus each
// write's acknowledged version and how late each write was sent.
func drive(ctx context.Context, p *poster, w *traffic, t0 time.Time, end time.Duration, errs *errorLog) ([]sample, []uint64, []time.Duration) {
	var mu sync.Mutex
	var samples []sample
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil; i++ {
			start := time.Since(t0)
			if start >= end {
				return
			}
			idx := w.reads[i%len(w.reads)]
			r := &w.pool[idx]
			body, status, err := p.send(r)
			sm := sample{kind: r.kind, ref: idx, start: start, end: time.Since(t0), status: status}
			sm.ms = float64(sm.end-sm.start) / 1e6
			if err == nil {
				if _, err = p.chk.check(r, idx, body); err != nil {
					sm.wrong = true
				}
			}
			if err != nil {
				errs.add(err)
			}
			record(sm)
		}
	}()
	acks := make([]uint64, len(w.writes))
	var late []time.Duration
	if len(w.writes) > 0 {
		var ww sync.WaitGroup
		for k := 0; ; k++ {
			due := time.Duration(k) * w.writeEvery
			if due >= end || k >= len(w.writes) || ctx.Err() != nil {
				break
			}
			if d := time.Until(t0.Add(due)); d > 0 {
				time.Sleep(d)
			}
			late = append(late, time.Since(t0)-due)
			ww.Add(1)
			// Every due write is sent, however late, on its own goroutine:
			// a slow write never holds back the next one.
			go func(k int, due time.Duration) {
				defer ww.Done()
				r := &w.writes[k]
				body, status, err := p.send(r)
				sm := sample{kind: kindMutate, ref: -1 - r.deltaKind(), start: due, end: time.Since(t0), status: status}
				sm.ms = float64(sm.end-due) / 1e6
				if err == nil {
					acks[k], err = p.chk.check(r, k, body)
					sm.wrong = err != nil
				}
				if err != nil {
					errs.add(err)
				}
				record(sm)
			}(k, due)
		}
		ww.Wait()
	}
	wg.Wait()
	return samples, acks, late
}

// checkVersions replays the acknowledged writes in version order through
// the model and compares every versioned read with the state of the
// version it reported. It returns the number of mismatches.
func checkVersions(m *wrModel, acks []uint64, reads []observed, errs *errorLog) int {
	if m == nil {
		return 0
	}
	order := make([]int, 0, len(acks))
	for k, v := range acks {
		if v > 0 {
			order = append(order, k)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return acks[order[a]] < acks[order[b]] })
	sort.SliceStable(reads, func(a, b int) bool { return reads[a].version < reads[b].version })
	st := m.start()
	next, wrong := 0, 0
	for _, ob := range reads {
		for next < len(order) && acks[order[next]] <= ob.version {
			st.apply(m.writes[order[next]])
			next++
		}
		ok := false
		switch ob.kind {
		case kindCertain:
			ok = ob.certain == (st.dig[ob.ref].n > 0)
		default:
			ok = ob.dig == st.dig[ob.ref]
		}
		if !ok {
			wrong++
			errs.add(fmt.Errorf("%s of write-read query %d at version %d disagrees with the model", kindNames[ob.kind], ob.ref, ob.version))
		}
	}
	return wrong
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// latencies summarizes one kind's successful requests: the median, the
// p90, and the tail, which is p99 with at least 1000 samples, else p90.
type latencies struct {
	n              int
	p50, p90, tail float64
	tailName       string
	// req50 is the geometric mean, over the kind's reqs distinct
	// requests, of each request's median latency.
	reqs  int
	req50 float64
}

func summarize(ms []float64) latencies {
	sort.Float64s(ms)
	l := latencies{n: len(ms), p50: quantile(ms, 0.5), p90: quantile(ms, 0.9), tailName: "p90"}
	if len(ms) >= 1000 {
		l.tailName = "p99"
		l.tail = quantile(ms, 0.99)
	} else {
		l.tail = quantile(ms, 0.9)
	}
	return l
}
