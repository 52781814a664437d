package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// kind is the endpoint a request goes to.
type kind int

const (
	kindCertain kind = iota
	kindAnswers
	kindCount
	kindClassify
	kindMutate
	numKinds
)

var kindNames = [numKinds]string{"certain", "answers", "count", "classify", "mutate"}

// request is one generated request: what the HTTP client sends and what
// the in-process replay feeds the layers, plus the expected outcome.
type request struct {
	kind  kind
	query string
	db    string // stored database name; empty with inline facts
	facts string // inline facts, one per line
	free  []string

	// Delta of a mutate request, in the upload syntax.
	insert []string
	delete []string
	upsert [][]string

	want want

	path string // HTTP path
	body []byte // HTTP body
}

// want is a request's expected outcome, fixed when the workload is
// generated and never taken from the engine under test.
type want struct {
	// versioned: the expected value depends on the database version the
	// response reports, and comes from the write-read model (query ref).
	versioned bool
	ref       int

	certain   bool
	rows      int    // answers: number of bindings
	digest    uint64 // answers: order-free digest of the bindings
	canonical string // classify: normalized query text
	count     *countWant
}

// countWant is the expected /v1/count outcome. Total and the component
// counts are exact; satisfying is set when every component is small
// enough to enumerate, otherwise the response's estimate must bracket
// fraction within its confidence half-width.
type countWant struct {
	total      string
	satisfying string
	fraction   float64
	components int
	sampled    int
}

// upload is a stored database, sent with PUT /v1/db/{name} at set-up.
type upload struct {
	name string
	text string
}

// traffic is one generated workload: its databases, request pool and streams.
type traffic struct {
	name    string
	uploads []upload
	// probes are pool indices answered once per database at set-up, so the
	// snapshot index and columnar view are built before timing.
	probes []int
	pool   []request
	// reads is the closed-loop client's stream of pool indices. One
	// client, not two: on two cores, two clients and the server saturate
	// both, and the run measures the scheduler.
	reads []int
	// writes is the open-loop writer's schedule, one every writeEvery.
	writes     []request
	writeEvery time.Duration
	model      *wrModel
	// focus is the request kind reported as focus_p50_ms.
	focus kind
	// replayLen is how many requests of the stream the replay runs.
	replayLen int
}

// deltaKind tells a write's deltas apart, so each has a median of its
// own: 0 upsert, 1 delete, 2 insert.
func (r *request) deltaKind() int {
	switch {
	case len(r.upsert) > 0:
		return 0
	case len(r.delete) > 0:
		return 1
	default:
		return 2
	}
}

// finish renders the HTTP path and body of every request.
func (w *traffic) finish() {
	for i := range w.pool {
		w.pool[i].render()
	}
	for i := range w.writes {
		w.writes[i].render()
	}
}

func (r *request) render() {
	var v any
	switch r.kind {
	case kindMutate:
		r.path = "/v1/db/" + r.db + "/facts"
		v = struct {
			Insert []string   `json:"insert,omitempty"`
			Delete []string   `json:"delete,omitempty"`
			Upsert [][]string `json:"upsert,omitempty"`
		}{r.insert, r.delete, r.upsert}
	case kindClassify:
		r.path = "/v1/classify"
		v = struct {
			Query string `json:"query"`
		}{r.query}
	default:
		r.path = "/v1/" + kindNames[r.kind]
		v = struct {
			Query string   `json:"query"`
			DB    string   `json:"db,omitempty"`
			Facts string   `json:"facts,omitempty"`
			Free  []string `json:"free,omitempty"`
		}{r.query, r.db, r.facts, r.free}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain strings always marshal
	}
	r.body = b
}

// stream draws n pool indices independently with the given weights.
func stream(rng *rand.Rand, weights []float64, n int) []int {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	out := make([]int, n)
	for i := range out {
		x := rng.Float64() * total
		out[i] = sort.SearchFloat64s(cum, x)
		if out[i] == len(cum) {
			out[i] = len(cum) - 1
		}
	}
	return out
}

// rounds draws n pool indices in shuffled rounds, request i appearing
// counts[i] times per round, so every stretch of the stream holds the
// mix in its exact proportions.
func rounds(rng *rand.Rand, counts []int, n int) []int {
	var round []int
	for i, c := range counts {
		for k := 0; k < c; k++ {
			round = append(round, i)
		}
	}
	out := make([]int, 0, n+len(round))
	for len(out) < n {
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		out = append(out, round...)
	}
	return out[:n]
}

// bindingHash hashes one answer binding in the var=value,var=value form
// with variables sorted, so response order never matters.
func bindingHash(b map[string]string) uint64 {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	h := fnv.New64a()
	for i, v := range vars {
		if i > 0 {
			h.Write([]byte{','})
		}
		h.Write([]byte(v))
		h.Write([]byte{'='})
		h.Write([]byte(b[v]))
	}
	return h.Sum64()
}

// digest is an order-free digest of a set of single-variable bindings.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) toggle(v, val string, in bool) {
	h := bindingHash(map[string]string{v: val})
	if in {
		d.n++
		d.sum += h
	} else {
		d.n--
		d.sum -= h
	}
}

func setDigest(v string, keys map[string]bool) digest {
	var d digest
	for k := range keys {
		d.toggle(v, k, true)
	}
	return d
}

// factLine renders a key-1 fact in the upload syntax.
func factLine(rel, key string, vals ...string) string {
	return rel + "(" + key + " | " + strings.Join(vals, ", ") + ")"
}

// generate builds the named workload from the seed.
func generate(name string, seed int64) (*traffic, error) {
	var w *traffic
	switch name {
	case "serve-fo":
		w = genServeFO(seed)
	case "serve-hard":
		w = genServeHard(seed)
	case "compile-churn":
		w = genCompileChurn(seed)
	case "write-read":
		w = genWriteRead(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want serve-fo, serve-hard, compile-churn or write-read)", name)
	}
	w.name = name
	w.finish()
	return w, nil
}
