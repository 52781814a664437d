package dissolve

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"cqa/internal/attack"
	"cqa/internal/db"
	"cqa/internal/dgraph"
	"cqa/internal/markov"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/simplify"
	"cqa/internal/workload"
)

// agreesOn reports whether v and w are both defined on all of s and
// assign each variable of s the same constant.
func agreesOn(v, w query.Valuation, s query.VarSet) bool {
	for x := range s {
		a, okA := v[x]
		b, okB := w[x]
		if !okA || !okB || a != b {
			return false
		}
	}
	return true
}

// compatible reports whether v and w agree on every variable defined in
// both.
func compatible(v, w query.Valuation) bool {
	for x, a := range v {
		if b, ok := w[x]; ok && a != b {
			return false
		}
	}
	return true
}

// edgeKey identifies a directed edge of G(db) by its constants.
type edgeKey struct {
	layer int // i: edge goes from type(x_i) to type(x_(i+1 mod k))
	from  query.Const
	to    query.Const
}

// transformByJoin is the reduction of Lemma 18 as TransformDB did it
// before it read the gpurified form, kept as its reference: it joins q
// over the gpurified database d, collects each edge's realizations
// θ[X_i] as valuations keyed by query.Valuation.Key, sorts vertices and
// edges by their constants, and emits each edge's realizations in key
// order.
func (dd *Dissolution) transformByJoin(d *db.DB) (*db.DB, Stats, error) {
	var st Stats
	k := len(dd.C)

	// 1. Build G(db): one edge (theta(x_i), theta(x_(i+1))) per embedding
	// and position, collecting the realizations theta[X_i].
	vid := make(map[vertex]int) // numbered in step 2
	realizations := make(map[edgeKey]map[string]query.Valuation)
	ix := match.NewIndex(d)
	ix.Match(dd.Q, query.Valuation{}, func(v query.Valuation) bool {
		st.Matches++
		for i := 0; i < k; i++ {
			a := v[dd.C[i]]
			b := v[dd.C[(i+1)%k]]
			vid[vertex{i, a}] = -1
			ek := edgeKey{layer: i, from: a, to: b}
			reals := realizations[ek]
			if reals == nil {
				reals = make(map[string]query.Valuation)
				realizations[ek] = reals
			}
			mu := query.Valuation{}
			for x, c := range v {
				if dd.Xi[i].Has(x) {
					mu[x] = c
				}
			}
			reals[mu.Key()] = mu.Clone()
		}
		return true
	})

	// 2. Vertex numbering and strong components. Vertices sort as their
	// typed constants x_i:c would: by the string x_i + ":", then by
	// constant. That fixes the component order, and with it the Dcomp
	// names and the T-fact order.
	tag := make([]string, k)
	for i, x := range dd.C {
		tag[i] = string(x) + ":"
	}
	verts := make([]vertex, 0, len(vid))
	for x := range vid {
		verts = append(verts, x)
	}
	sort.Slice(verts, func(i, j int) bool {
		a, b := verts[i], verts[j]
		if a.layer != b.layer {
			return tag[a.layer] < tag[b.layer]
		}
		return a.c < b.c
	})
	for i, x := range verts {
		vid[x] = i
	}
	st.Vertices = len(verts)
	g := dgraph.New(len(verts))
	var edges []edgeKey
	for ek := range realizations {
		edges = append(edges, ek)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].layer != edges[j].layer {
			return edges[i].layer < edges[j].layer
		}
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	st.Edges = len(edges)
	ends := func(ek edgeKey) (int, int) {
		return vid[vertex{ek.layer, ek.from}], vid[vertex{(ek.layer + 1) % k, ek.to}]
	}
	for _, ek := range edges {
		g.AddEdge(ends(ek))
	}
	comp, ncomp := g.SCC()

	// After gpurification every strong component is initial: no edge may
	// cross components.
	for _, ek := range edges {
		if from, to := ends(ek); comp[from] != comp[to] {
			return nil, st, fmt.Errorf("dissolve: edge %s -> %s crosses strong components; database is not gpurified", ek.from, ek.to)
		}
	}

	// 3. Process each component.
	out := db.New()
	q0Rels := make(map[string]bool)
	for _, a := range dd.Q0.Atoms {
		q0Rels[a.Rel.Name] = true
	}
	for _, f := range d.Facts() {
		if !q0Rels[f.Rel.Name] {
			out.Add(f)
		}
	}

	compVerts := make([][]int, ncomp)
	for i := range verts {
		compVerts[comp[i]] = append(compVerts[comp[i]], i)
	}
	// Adjacency restricted by component is the whole graph (components
	// are edge-closed as checked above).
	for cIdx := 0; cIdx < ncomp; cIdx++ {
		vs := compVerts[cIdx]
		if len(vs) == 0 {
			continue
		}
		// Skip components with no edges at all (isolated vertices cannot
		// occur in gpurified inputs, but tolerate them: their facts are
		// dropped, which matches Lemma 16 since they admit no cycle and
		// hence a non-grelevant repair).
		hasEdge := false
		for _, v := range vs {
			if len(g.Succ(v)) > 0 {
				hasEdge = true
				break
			}
		}
		st.Components++
		if !hasEdge {
			st.BadComponents++
			continue
		}
		cycleVerts, long, _ := dd.analyzeComponent(g, vs, verts, g.NewSearch(), nil)
		var cycles [][]query.Const
		for _, cyc := range cycleVerts {
			cs := make([]query.Const, k)
			for i, v := range cyc {
				cs[i] = verts[v].c
			}
			cycles = append(cycles, cs)
		}
		if long {
			st.LongCycles++
			st.BadComponents++
			continue
		}
		// Support check per cycle; all must support q to keep D.
		var supported [][]query.Const
		bad := false
		for _, cyc := range cycles {
			ok := dd.supportsByJoin(cyc, realizations)
			if !ok {
				st.SupportFailure++
				bad = true
				break
			}
			supported = append(supported, cyc)
		}
		if bad {
			st.BadComponents++
			continue
		}
		if len(supported) == 0 {
			// A strongly connected component with an edge contains a
			// cycle; its length is a multiple of k, and no k-cycle means
			// a longer one exists.
			st.LongCycles++
			st.BadComponents++
			continue
		}
		// 4. Encode the component.
		dConst := query.Const(fmt.Sprintf("Dcomp%d", cIdx))
		for _, cyc := range supported {
			st.KCycles++
			if err := dd.emitCycleByJoin(out, cyc, dConst, realizations, &st); err != nil {
				return nil, st, err
			}
		}
		for i := 0; i < k; i++ {
			// U_i facts: every vertex of the component in layer i points
			// to the component constant.
			for _, v := range vs {
				if verts[v].layer == i {
					out.Add(db.Fact{Rel: dd.URels[i], Args: []query.Const{verts[v].c, dConst}})
				}
			}
		}
	}
	return out, st, nil
}

// supportsByJoin implements the support check: for all positions i ≠ j and all
// realizations µi, µj of the cycle's edges, µi and µj agree on Xi ∩ Xj.
func (dd *Dissolution) supportsByJoin(cyc []query.Const, realizations map[edgeKey]map[string]query.Valuation) bool {
	k := len(dd.C)
	deltas := make([][]query.Valuation, k)
	for i := 0; i < k; i++ {
		ek := edgeKey{layer: i, from: cyc[i], to: cyc[(i+1)%k]}
		for _, mu := range realizations[ek] {
			deltas[i] = append(deltas[i], mu)
		}
		if len(deltas[i]) == 0 {
			return false // edge not realized; cannot happen for enumerated cycles
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			shared := dd.Xi[i].Intersect(dd.Xi[j])
			if len(shared) == 0 {
				continue
			}
			for _, mi := range deltas[i] {
				for _, mj := range deltas[j] {
					if !agreesOn(mi, mj, shared) {
						return false
					}
				}
			}
		}
	}
	return true
}

// emitCycleByJoin adds the T-facts for one supported k-cycle: one fact per
// element of the cross product ∆0 × ... × ∆(k-1) (Section 6.5). The
// support check guarantees the realizations merge into a well-defined
// valuation µ over the cycle variables and ȳ.
func (dd *Dissolution) emitCycleByJoin(out *db.DB, cyc []query.Const, dConst query.Const, realizations map[edgeKey]map[string]query.Valuation, st *Stats) error {
	k := len(dd.C)
	deltas := make([][]query.Valuation, k)
	for i := 0; i < k; i++ {
		ek := edgeKey{layer: i, from: cyc[i], to: cyc[(i+1)%k]}
		var keys []string
		for key := range realizations[ek] {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			deltas[i] = append(deltas[i], realizations[ek][key])
		}
		if len(deltas[i]) == 0 {
			return fmt.Errorf("dissolve: cycle edge %s -> %s has no realization", cyc[i], cyc[(i+1)%k])
		}
	}
	idx := make([]int, k)
	for {
		mu := query.Valuation{}
		for i := 0; i < k; i++ {
			cand := deltas[i][idx[i]]
			if !compatible(mu, cand) {
				return fmt.Errorf("dissolve: incompatible realizations for supported cycle %s", componentTag(cyc))
			}
			for v, c := range cand {
				mu[v] = c
			}
		}
		args := make([]query.Const, 0, dd.TRel.Arity)
		args = append(args, dConst)
		args = append(args, cyc...)
		for _, y := range dd.YVars {
			c, ok := mu[y]
			if !ok {
				return fmt.Errorf("dissolve: realization does not bind %s on cycle %s", y, componentTag(cyc))
			}
			args = append(args, c)
		}
		out.Add(db.Fact{Rel: dd.TRel, Args: args})
		st.TFacts++
		// Advance the odometer over the cross product.
		i := k - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(deltas[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

func componentTag(cyc []query.Const) string {
	parts := make([]string, len(cyc))
	for i, c := range cyc {
		parts[i] = string(c)
	}
	return strings.Join(parts, "|")
}

// dissolutionInput takes q and d down one random path of the P
// engine's recursion to a dissolution. Each level purifies, eliminates
// patterns and packs composite keys; a level with an unattacked mode-i
// atom F takes one Lemma 9 branch, a random fact of a random block of
// F, and goes on with the residue; otherwise it gpurifies and saturates
// until q is saturated, and returns the dissolution of a premier Markov
// cycle with the gpurified form. It returns false when the path ends
// without one: no embedding survives, or q has no inconsistent atom
// left.
func dissolutionInput(t *testing.T, rng *rand.Rand, q query.Query, d *db.DB) (*Dissolution, *match.Constraints, bool) {
	t.Helper()
	for depth := 0; depth < 8; depth++ {
		var err error
		if d, err = match.Purify(q, d, nil); err != nil || d.Len() == 0 || q.InconsistencyCount() == 0 {
			return nil, nil, false
		}
		if step, changed := simplify.ElimPatterns(q); changed {
			if d, err = step.TransformDB(d, nil); err != nil {
				t.Fatal(err)
			}
			q = step.Q
		}
		if step, changed, err := simplify.PackCompositeKeys(q); err != nil {
			t.Fatal(err)
		} else if changed {
			if d, err = step.TransformDB(d, nil); err != nil {
				t.Fatal(err)
			}
			q = step.Q
		}
	saturate:
		for {
			g, err := attack.BuildGraph(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range g.Unattacked() {
				f := q.Atoms[i]
				if f.Rel.Mode != schema.ModeI {
					continue
				}
				blocks := d.BlocksOf(f.Rel.Name)
				facts := blocks[rng.Intn(len(blocks))].Facts
				theta := query.Valuation{}
				if !match.UnifyTerms(f.Args, facts[rng.Intn(len(facts))].Args, theta) {
					return nil, nil, false
				}
				q = q.Remove(f).Substitute(theta)
				break saturate
			}
			gf, err := match.GPurify(q, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(gf.Blocks) == 0 {
				return nil, nil, false
			}
			step, more, err := simplify.Saturate(q)
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				m, err := markov.Build(q)
				if err != nil {
					t.Fatal(err)
				}
				dd, err := Dissolve(q, m, m.PremierCycle(g))
				if err != nil {
					t.Fatal(err)
				}
				return dd, gf, true
			}
			if d, err = step.TransformDB(gf, nil); err != nil {
				return nil, nil, false // an inconsistent projection; the engine fails closed
			}
			q = step.Q
		}
	}
	return nil, nil, false
}

// prefixDB draws facts for R(x | y, v[, w]), S(y | x) whose non-key
// constants are proper prefixes of each other ("a", "a!", "a,x"), so
// that an edge's realizations differ in v (and w) and their
// Valuation.Key order is not their per-constant order: "v=a!,x=..."
// sorts before "v=a,x=...", and "v=a,x,x=..." before "v=a,x=...".
func prefixDB(rng *rand.Rand, q query.Query) *db.DB {
	keys := []query.Const{"p", "p!", "q", "p,"}
	vals := []query.Const{"a", "a!", "a,x", "a,", "ab", "b", "a!!"}
	r, _ := q.AtomWithRel("R")
	s, _ := q.AtomWithRel("S")
	d := db.New()
	for n := 6 + rng.Intn(10); n > 0; n-- {
		x, y := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		args := []query.Const{x, y}
		for range r.Args[2:] {
			args = append(args, vals[rng.Intn(len(vals))])
		}
		d.Add(db.NewFact(r.Rel, args...))
		d.Add(db.NewFact(s.Rel, y, x))
	}
	return d
}

// TestTransformMatchesJoinOracle: on seeded instances of every shape
// the P engine dissolves — q0, a query whose realizations carry a
// further variable, over constants that are prefixes of each other,
// composite keys, Example 6's saturation path and random queries in
// P \ FO — TransformDB on the gpurified form returns the database the
// join-based reduction returns, fact for fact and in order, with the
// same Stats.
func TestTransformMatchesJoinOracle(t *testing.T) {
	ex6 := query.MustParse("R(x | y), S1(y | z), S2(y | z), T#c(x, z | w), U(w | x)")
	composite := query.MustParse("R(x, y | z), S(y, z | x)")
	prefix := []query.Query{
		query.MustParse("R(x | y, v), S(y | x)"),
		query.MustParse("R(x | y, v, w), S(y | x)"),
	}
	const perShape = 250
	shapes := []string{"q0", "prefix", "composite", "ex6", "random"}
	got := make(map[string]int)
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 100*perShape; trial++ {
		shape := shapes[trial%len(shapes)]
		if got[shape] == perShape {
			continue
		}
		p := workload.DefaultDBParams()
		p.SeedMatches, p.Domain, p.ExtraPerBlock = 1+rng.Intn(3), 1+rng.Intn(2), 0.6
		var q query.Query
		var d *db.DB
		switch shape {
		case "q0":
			q = workload.Q0()
			d = workload.Q0Instance(rng, 2+rng.Intn(12), 1+rng.Intn(2))
			if rng.Intn(2) == 0 {
				d = workload.SharePools(d)
			}
		case "prefix":
			q = prefix[rng.Intn(len(prefix))]
			d = prefixDB(rng, q)
		case "composite":
			q = composite
			d = workload.RandomDB(rng, q, p)
		case "ex6":
			q = ex6
			d = workload.RandomDB(rng, q, p)
		default:
			qp := workload.DefaultQueryParams()
			qp.Atoms, qp.PModeC = 2+rng.Intn(4), 0.15
			q = workload.RandomQuery(rng, qp)
			if cls, _, err := attack.Classify(q); err != nil || cls != attack.PTime {
				continue
			}
			d = workload.RandomDB(rng, q, p)
		}
		dd, gf, ok := dissolutionInput(t, rng, q, d)
		if !ok {
			continue
		}
		want, wantSt, wantErr := dd.transformByJoin(gf.Copy())
		out, st, err := dd.TransformDB(gf, nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: q = %s: error %v, oracle error %v", shape, dd.Q, err, wantErr)
		}
		if err == nil && !slices.EqualFunc(out.Facts(), want.Facts(), db.Fact.Equal) || st != wantSt {
			t.Fatalf("%s: q = %s\ndb:\n%s\nTransformDB (%+v):\n%s\noracle (%+v):\n%s", shape, dd.Q, gf.Copy(), st, out, wantSt, want)
		}
		got[shape]++
	}
	t.Logf("instances per shape: %v", got)
	total := 0
	for _, shape := range shapes {
		total += got[shape]
		if got[shape] < perShape/5 {
			t.Errorf("only %d %s instances reached a dissolution", got[shape], shape)
		}
	}
	if total < 1000 {
		t.Errorf("compared %d instances, want at least 1000", total)
	}
}
