package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"cqa/internal/query"
	"cqa/internal/workload"
)

// rel is one generated key-1 relation in the benchmark's own form: the
// expected answers are read off it by a direct block-by-block
// evaluation, never by the server's engines.
type rel struct {
	name  string
	keys  []string              // block order
	facts map[string][][]string // key -> non-key tuples of its block
}

func (r *rel) add(key string, vals ...string) {
	if _, ok := r.facts[key]; !ok {
		r.keys = append(r.keys, key)
	}
	r.facts[key] = append(r.facts[key], vals)
}

// graph is a generated database of key-1 relations.
type graph struct {
	rels  map[string]*rel
	order []string
}

func newGraph() *graph { return &graph{rels: map[string]*rel{}} }

func (g *graph) rel(name string) *rel {
	r, ok := g.rels[name]
	if !ok {
		r = &rel{name: name, facts: map[string][][]string{}}
		g.rels[name] = r
		g.order = append(g.order, name)
	}
	return r
}

func (g *graph) pick(names ...string) []*rel {
	out := make([]*rel, len(names))
	for i, n := range names {
		out[i] = g.rels[n]
	}
	return out
}

func (g *graph) text() string {
	var b strings.Builder
	for _, name := range g.order {
		r := g.rels[name]
		for _, k := range r.keys {
			for _, vals := range r.facts[k] {
				b.WriteString(factLine(name, k, vals...))
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// chainGood returns the keys of rels[0] whose block certainly starts the
// chain rels[0] -> rels[1] -> ...: a block of the last relation is good
// when it exists, any other block when every one of its facts points at a
// good block of the next relation.
func chainGood(rels []*rel) map[string]bool {
	var next map[string]bool
	for i := len(rels) - 1; i >= 0; i-- {
		good := map[string]bool{}
		for key, facts := range rels[i].facts {
			ok := true
			for _, f := range facts {
				if next != nil && !next[f[0]] {
					ok = false
					break
				}
			}
			if ok {
				good[key] = true
			}
		}
		next = good
	}
	return next
}

// starGood returns the keys that have a block in every relation.
func starGood(rels []*rel) map[string]bool {
	good := map[string]bool{}
	for key := range rels[0].facts {
		ok := true
		for _, r := range rels[1:] {
			if _, in := r.facts[key]; !in {
				ok = false
				break
			}
		}
		if ok {
			good[key] = true
		}
	}
	return good
}

// forkGood returns the keys of a ternary relation whose every fact
// (key | l, r) has a good l and a good r.
func forkGood(r *rel, left, right map[string]bool) map[string]bool {
	good := map[string]bool{}
	for key, facts := range r.facts {
		ok := true
		for _, f := range facts {
			if !left[f[0]] || !right[f[1]] {
				ok = false
				break
			}
		}
		if ok {
			good[key] = true
		}
	}
	return good
}

func keySet(r *rel) map[string]bool {
	s := make(map[string]bool, len(r.facts))
	for k := range r.facts {
		s[k] = true
	}
	return s
}

// blockSize draws a block's fact count: mostly 1, sometimes 2 or 3.
func blockSize(rng *rand.Rand) int {
	switch x := rng.Float64(); {
	case x < 0.7:
		return 1
	case x < 0.95:
		return 2
	default:
		return 3
	}
}

// fillChainRel adds a block for the given share of the nodes, each fact
// pointing at a random node or, rarely, at a dead end no block has.
func fillChainRel(rng *rand.Rand, r *rel, nodes int, share float64) {
	for i := 0; i < nodes; i++ {
		if rng.Float64() >= share {
			continue
		}
		key := "n" + strconv.Itoa(i)
		seen := map[string]bool{}
		for k, size := 0, blockSize(rng); k < size; k++ {
			v := "n" + strconv.Itoa(rng.Intn(nodes))
			if rng.Float64() < 0.04 {
				v = fmt.Sprintf("dead_%s_%d_%d", r.name, i, k)
			}
			if !seen[v] {
				seen[v] = true
				r.add(key, v)
			}
		}
	}
}

// renamed returns q with its atoms' relations renamed in order.
func renamed(q query.Query, names ...string) query.Query {
	atoms := make([]query.Atom, len(q.Atoms))
	copy(atoms, q.Atoms)
	for i := range atoms {
		atoms[i].Rel.Name = names[i]
	}
	return query.NewQuery(atoms...)
}

func relNames(from, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "R" + strconv.Itoa(from+i)
	}
	return out
}

// foQuery is one FO query of serve-fo with its free variable and the keys
// of its certain answers.
type foQuery struct {
	q    query.Query
	free string
	good map[string]bool
}

// genServeFO builds one stored database of about 100k blocks and 16 FO
// queries from the chain, star and tree families. R1..R4 share the node
// domain, so chains and stars both join; R5's keys are a disjoint domain,
// so every chain or star reaching R5 is falsified only after a full
// sweep. Tree relations T1..T7 have a domain of their own.
func genServeFO(seed int64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	const nodes, hubNodes, treeNodes = 35000, 30000, 1500
	g := newGraph()
	for j := 1; j <= 4; j++ {
		fillChainRel(rng, g.rel("R"+strconv.Itoa(j)), nodes, 0.4)
	}
	r5 := g.rel("R5")
	for i := 0; i < hubNodes; i++ {
		r5.add("m"+strconv.Itoa(i), "n"+strconv.Itoa(rng.Intn(nodes)))
	}
	tq := workload.TreeQuery(2)
	for _, a := range tq.Atoms {
		r := g.rel(a.Rel.Name)
		for i := 0; i < treeNodes; i++ {
			if rng.Float64() >= 0.95 {
				continue
			}
			vals := make([]string, a.Rel.Arity-1)
			for k, size := 0, blockSize(rng); k < size; k++ {
				for c := range vals {
					vals[c] = "t" + strconv.Itoa(rng.Intn(treeNodes))
					if rng.Float64() < 0.02 {
						vals[c] = fmt.Sprintf("dead_%s_%d_%d", a.Rel.Name, i, k)
					}
				}
				r.add("t"+strconv.Itoa(i), append([]string(nil), vals...)...)
			}
		}
	}

	var qs []foQuery
	for _, c := range [][2]int{{1, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 2}, {2, 3}, {2, 4}, {3, 2}, {3, 3}, {4, 2}} {
		names := relNames(c[0], c[1])
		qs = append(qs, foQuery{renamed(workload.PathQuery(c[1]), names...), "x1", chainGood(g.pick(names...))})
	}
	for _, n := range []int{2, 3, 4, 5} {
		names := relNames(1, n)
		qs = append(qs, foQuery{workload.StarQuery(n), "x", starGood(g.pick(names...))})
	}
	shifted := relNames(2, 3)
	qs = append(qs, foQuery{renamed(workload.StarQuery(3), shifted...), "x", starGood(g.pick(shifted...))})
	t := func(n int) map[string]bool { return keySet(g.rels["T"+strconv.Itoa(n)]) }
	left := forkGood(g.rels["T2"], t(3), t(4))
	right := forkGood(g.rels["T5"], t(6), t(7))
	qs = append(qs, foQuery{tq, "root", forkGood(g.rels["T1"], left, right)})

	w := &traffic{uploads: []upload{{"fo", g.text()}}, focus: kindAnswers, replayLen: 400}
	for _, fq := range qs {
		text := fq.q.String()
		w.pool = append(w.pool, request{kind: kindCertain, query: text, db: "fo",
			want: want{certain: len(fq.good) > 0}})
		d := setDigest(fq.free, fq.good)
		w.pool = append(w.pool, request{kind: kindAnswers, query: text, db: "fo", free: []string{fq.free},
			want: want{rows: d.n, digest: d.sum}})
	}
	w.probes = []int{0}
	// Falsified certain requests (full sweeps) outweigh the early exits of
	// the certain ones six to one; the two endpoints are drawn about
	// equally often.
	counts := make([]int, len(w.pool))
	for i, r := range w.pool {
		switch {
		case r.kind == kindAnswers:
			counts[i] = 3
		case r.want.certain:
			counts[i] = 1
		default:
			counts[i] = 6
		}
	}
	w.reads = rounds(rng, counts, 50000)
	return w
}

// Write-read model: four read queries over one stored database; writes
// touch R1 and R2 blocks of distinct nodes, so any two writes commute and
// the state at a version is the upload plus every write acknowledged at
// or below it.
const (
	wrPath2 = iota // R1(x1 | x2), R2(x2 | x3)
	wrPath3        // R1(x1 | x2), R2(x2 | x3), R3(x3 | x4)
	wrStar2        // R1(x | y1), R2(x | y2)
	wrDead         // R1(x1 | x2), R5(x2 | x3): R5's keys are never R1 values
	wrQueries
)

var wrFree = [wrQueries]string{"x1", "x1", "x", "x1"}

// wrWrite is one write of the schedule: the R1 block or R2 block it
// leaves at node (nil vals: the block is gone).
type wrWrite struct {
	r1   bool
	node string
	vals []string
}

// wrModel computes the expected read answers of each database version.
type wrModel struct {
	r1, r2 map[string][]string
	r3     map[string]bool
	writes []wrWrite
}

type wrState struct {
	m    *wrModel
	r1   map[string][]string
	r2   map[string][]string
	rev  map[string]map[string]bool // R2 key -> R1 keys pointing at it
	in   [wrQueries]map[string]bool
	dig  [wrQueries]digest
	curr [wrQueries]bool
}

func (m *wrModel) start() *wrState {
	s := &wrState{m: m, r1: map[string][]string{}, r2: map[string][]string{}, rev: map[string]map[string]bool{}}
	for k, v := range m.r1 {
		s.r1[k] = v
		for _, x := range v {
			s.link(x, k, true)
		}
	}
	for k, v := range m.r2 {
		s.r2[k] = v
	}
	for q := range s.in {
		s.in[q] = map[string]bool{}
	}
	for k := range s.r1 {
		s.update(k)
	}
	return s
}

func (s *wrState) link(to, from string, on bool) {
	if on {
		if s.rev[to] == nil {
			s.rev[to] = map[string]bool{}
		}
		s.rev[to][from] = true
	} else {
		delete(s.rev[to], from)
	}
}

func (s *wrState) good2(b string) bool {
	vals, ok := s.r2[b]
	if !ok {
		return false
	}
	for _, v := range vals {
		if !s.m.r3[v] {
			return false
		}
	}
	return true
}

// update recomputes node a's membership in the three answer sets.
func (s *wrState) update(a string) {
	vals, ok := s.r1[a]
	var now [wrQueries]bool
	if ok {
		now[wrPath2], now[wrPath3] = true, true
		for _, v := range vals {
			if _, in := s.r2[v]; !in {
				now[wrPath2] = false
			}
			if !s.good2(v) {
				now[wrPath3] = false
			}
		}
		_, now[wrStar2] = s.r2[a]
	}
	now[wrDead] = false
	for q := range now {
		if now[q] != s.in[q][a] {
			if now[q] {
				s.in[q][a] = true
			} else {
				delete(s.in[q], a)
			}
			s.dig[q].toggle(wrFree[q], a, now[q])
		}
	}
}

func (s *wrState) apply(w wrWrite) {
	if w.r1 {
		for _, x := range s.r1[w.node] {
			s.link(x, w.node, false)
		}
		s.r1[w.node] = w.vals
		for _, x := range w.vals {
			s.link(x, w.node, true)
		}
		s.update(w.node)
		return
	}
	if w.vals == nil {
		delete(s.r2, w.node)
	} else {
		s.r2[w.node] = w.vals
	}
	s.update(w.node)
	for a := range s.rev[w.node] {
		s.update(a)
	}
}

// genWriteRead builds one stored FO database of about 100k blocks, a
// closed-loop reader over four queries, and an open-loop writer whose
// deltas (upsert, delete, insert) hit the R1 and R2 blocks those queries
// join. R2 is sparse, so the answer sets stay in the thousands; R5 is
// keyed by a domain of its own, so the query through it is falsified
// after a full sweep of R1.
func genWriteRead(seed int64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	const nodes = 27000
	g := newGraph()
	fillChainRel(rng, g.rel("R1"), nodes, 0.92)
	r2 := g.rel("R2")
	for i := 0; i < nodes; i++ {
		if rng.Float64() < 0.1 {
			r2.add("n"+strconv.Itoa(i), "n"+strconv.Itoa(rng.Intn(nodes)))
		}
	}
	fillChainRel(rng, g.rel("R3"), nodes, 0.92)
	r5 := g.rel("R5")
	for i := 0; i < nodes; i++ {
		r5.add("m"+strconv.Itoa(i), "n"+strconv.Itoa(rng.Intn(nodes)))
	}
	m := &wrModel{r1: map[string][]string{}, r2: map[string][]string{}, r3: keySet(g.rels["R3"])}
	flat := func(r *rel, dst map[string][]string) {
		for k, facts := range r.facts {
			for _, f := range facts {
				dst[k] = append(dst[k], f[0])
			}
		}
	}
	flat(g.rels["R1"], m.r1)
	flat(g.rels["R2"], m.r2)

	w := &traffic{uploads: []upload{{"wr", g.text()}}, focus: kindMutate, model: m,
		writeEvery: 50 * time.Millisecond, replayLen: 300}
	texts := [wrQueries]string{
		workload.PathQuery(2).String(),
		workload.PathQuery(3).String(),
		workload.StarQuery(2).String(),
		renamed(workload.PathQuery(2), "R1", "R5").String(),
	}
	for q, text := range texts {
		w.pool = append(w.pool,
			request{kind: kindCertain, query: text, db: "wr", want: want{versioned: true, ref: q}},
			request{kind: kindAnswers, query: text, db: "wr", free: []string{wrFree[q]}, want: want{versioned: true, ref: q}})
	}
	w.probes = []int{0}
	// The falsified query's certain request (a full sweep of R1) outweighs
	// the early exits of the other three nine to one.
	w.reads = rounds(rng, []int{1, 1, 1, 1, 1, 1, 9, 1}, 50000)

	// Writes hit distinct nodes in a seeded order; 60 s at the write rate
	// fits well inside the node count.
	perm := rng.Perm(nodes)[:4000]
	node := func(i int) string { return "n" + strconv.Itoa(i) }
	for i, p := range perm {
		a := node(p)
		var ww wrWrite
		req := request{kind: kindMutate, db: "wr"}
		switch old, has := m.r2[a]; {
		case i%3 == 0:
			// Upsert a new R1 block: one or two fresh targets.
			seen := map[string]bool{}
			for _, v := range m.r1[a] {
				seen[v] = true
			}
			var vals, lines []string
			for k := 1 + rng.Intn(2); len(vals) < k; {
				v := node(rng.Intn(nodes))
				if !seen[v] {
					seen[v] = true
					vals = append(vals, v)
					lines = append(lines, factLine("R1", a, v))
				}
			}
			ww = wrWrite{r1: true, node: a, vals: vals}
			req.upsert = [][]string{lines}
		case i%3 == 1 && has:
			// Delete the whole R2 block.
			for _, v := range old {
				req.delete = append(req.delete, factLine("R2", a, v))
			}
			ww = wrWrite{node: a}
		default:
			// Insert one R2 fact, opening the block when it is missing.
			v := node(rng.Intn(nodes))
			for contains(old, v) {
				v = node(rng.Intn(nodes))
			}
			req.insert = []string{factLine("R2", a, v)}
			ww = wrWrite{node: a, vals: append(append([]string(nil), old...), v)}
		}
		m.writes = append(m.writes, ww)
		w.writes = append(w.writes, req)
	}
	return w
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
