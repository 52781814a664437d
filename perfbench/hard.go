package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"strconv"
	"strings"

	"cqa/internal/conp"
	"cqa/internal/workload"
)

const countQuery = "C1(x | y), C2(y | z)"

// genServeHard builds the workload of the non-FO engines and counting:
// unions of q0 instances (P \ FO, decided by the ptime engine; expected
// answers from an in-process coNP search per component), unions of three
// planted-satisfiable SAT reductions (coNP-complete; a satisfiable
// formula means "not certain", by construction), and two counting
// instances of many small chain components, one with an oversized hub
// component that is sampled; plus a few certain requests on inline facts.
func genServeHard(seed int64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	w := &traffic{focus: kindCount, replayLen: 60}
	q0 := workload.Q0()
	for i := 0; i < 6; i++ {
		// The first three databases hold only components that are not
		// certain, so the whole instance is not certain either.
		text, certain := q0Union(rng, 32, 20, i < 3)
		name := "q0-" + strconv.Itoa(i)
		w.uploads = append(w.uploads, upload{name, text})
		w.pool = append(w.pool, request{kind: kindCertain, query: q0.String(), db: name, want: want{certain: certain}})
	}
	sat := workload.SATQuery().String()
	// Twelve databases of three small formulas each: the search cost of a
	// single planted formula varies several-fold from draw to draw, and
	// summing three and spreading the load over twelve evens it out. The
	// q0 unions above are sized to be the slower requests, so the p90 of
	// /v1/certain falls among the sums over 32 components.
	for i := 0; i < 12; i++ {
		name := "sat-" + strconv.Itoa(i)
		var b strings.Builder
		for k := 0; k < 3; k++ {
			writePrefixed(&b, fmt.Sprintf("f%d_", k), plantedSAT(rng, 14, 60))
		}
		w.uploads = append(w.uploads, upload{name, b.String()})
		w.pool = append(w.pool, request{kind: kindCertain, query: sat, db: name, want: want{certain: false}})
	}
	for i, hub := range []int{0, 64} {
		name := "cnt-" + strconv.Itoa(i)
		text, cw := countInstance(rng, 2500, hub)
		w.uploads = append(w.uploads, upload{name, text})
		w.pool = append(w.pool, request{kind: kindCount, query: countQuery, db: name, want: want{count: cw}})
	}
	for i := range w.uploads {
		w.probes = append(w.probes, i)
	}
	// Four certain requests on small inline databases keep the inline path
	// (db.ParseFacts, match.NewIndex) and plan compilation in a gated
	// workload's replay. They are cheap, so they sit below the medians.
	for n := 0; n < 4; {
		q := workload.RandomQuery(rng, workload.QueryParams{Atoms: 3, MaxArity: 3, MaxKey: 2, Vars: 4, PConst: 0.05, PModeC: 0.1, Consts: 2})
		if facts, certain, ok := smallDB(rng, q); ok {
			w.pool = append(w.pool, request{kind: kindCertain, query: q.String(), facts: facts, want: want{certain: certain}})
			n++
		}
	}
	// Each certain request once per round, each count database five
	// times: about a third of the requests count.
	counts := make([]int, len(w.pool))
	for i, r := range w.pool {
		counts[i] = 1
		if r.kind == kindCount {
			counts[i] = 5
		}
	}
	w.reads = rounds(rng, counts, 20000)
	return w
}

// q0Union renders comps disjoint q0 instances (workload.Q0Instance) with
// their constants prefixed apart. Each component is decided by an
// in-process coNP search; q0 is connected, so the union is certain iff
// some component is. With falseOnly, certain components are redrawn.
func q0Union(rng *rand.Rand, comps, nodes int, falseOnly bool) (string, bool) {
	q0 := workload.Q0()
	var b strings.Builder
	certain := false
	for k := 0; k < comps; {
		d := workload.Q0Instance(rng, nodes, 2)
		c, _ := conp.Certain(q0, d)
		if c && falseOnly {
			continue
		}
		certain = certain || c
		var t strings.Builder
		for _, f := range d.Facts() {
			t.WriteString(f.String())
			t.WriteByte('\n')
		}
		writePrefixed(&b, fmt.Sprintf("c%d_", k), t.String())
		k++
	}
	return b.String(), certain
}

// writePrefixed copies binary key-1 facts, one per line, with prefix
// added to both constants, so instances written with distinct prefixes
// share no constant.
func writePrefixed(b *strings.Builder, prefix, text string) {
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		open, bar := strings.IndexByte(line, '('), strings.Index(line, " | ")
		b.WriteString(line[:open+1] + prefix + line[open+1:bar+3] + prefix + line[bar+3:] + "\n")
	}
}

// plantedSAT renders the SAT reduction (workload.SATInstance) of a random
// 3-CNF whose clauses all hold under a hidden assignment, so the formula
// is satisfiable and CERTAINTY(R(x | y), S(u | y)) is false.
func plantedSAT(rng *rand.Rand, vars, clauses int) string {
	hidden := make([]bool, vars+1)
	for v := 1; v <= vars; v++ {
		hidden[v] = rng.Intn(2) == 0
	}
	f := workload.CNF{Vars: vars}
	for len(f.Clauses) < clauses {
		c := workload.RandomCNF(rng, vars, 1, 3).Clauses[0]
		for _, lit := range c {
			v := lit
			if v < 0 {
				v = -v
			}
			if (lit > 0) == hidden[v] {
				f.Clauses = append(f.Clauses, c)
				break
			}
		}
	}
	var b strings.Builder
	for _, fact := range workload.SATInstance(f).Facts() {
		b.WriteString(fact.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// countInstance builds comps components for C1(x | y), C2(y | z): one
// C1 block of two or three facts, exactly one pointing at a y with no C2
// block, the others at y's with C2 blocks of one or two facts. A
// component's falsifying repairs pick the dead y, so the exact counts
// follow from the block sizes. With hub > 0 one more component has hub
// C1 blocks that each choose between a shared y and a dead end: its
// 2^hub assignments exceed the exact bound, so it is sampled.
func countInstance(rng *rand.Rand, comps, hub int) (string, *countWant) {
	var b strings.Builder
	total, fals := big.NewInt(1), big.NewInt(1)
	ratio := 1.0 // product of the components' falsifying shares
	mul := func(x *big.Int, n int) { x.Mul(x, big.NewInt(int64(n))) }
	for i := 0; i < comps; i++ {
		x := "x" + strconv.Itoa(i)
		ys := 2 + rng.Intn(2)
		b.WriteString(factLine("C1", x, "dead"+strconv.Itoa(i)) + "\n")
		mul(total, ys)
		ratio /= float64(ys)
		for k := 1; k < ys; k++ {
			y := fmt.Sprintf("y%d_%d", i, k)
			b.WriteString(factLine("C1", x, y) + "\n")
			zs := 1 + rng.Intn(2)
			for z := 0; z < zs; z++ {
				b.WriteString(factLine("C2", y, "z"+strconv.Itoa(z)) + "\n")
			}
			mul(total, zs)
			mul(fals, zs)
		}
	}
	cw := &countWant{components: comps}
	if hub > 0 {
		for j := 0; j < hub; j++ {
			h := "h" + strconv.Itoa(j)
			b.WriteString(factLine("C1", h, "hub") + "\n" + factLine("C1", h, "hubdead"+strconv.Itoa(j)) + "\n")
			mul(total, 2)
			ratio /= 2
		}
		b.WriteString(factLine("C2", "hub", "z0") + "\n" + factLine("C2", "hub", "z1") + "\n")
		mul(total, 2)
		mul(fals, 2)
		cw.components++
		cw.sampled = 1
	}
	cw.total = total.String()
	cw.fraction = 1 - ratio
	if hub == 0 {
		cw.satisfying = new(big.Int).Sub(total, fals).String()
	}
	return b.String(), cw
}
