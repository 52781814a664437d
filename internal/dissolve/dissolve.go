// Package dissolve implements the dissolution of Markov cycles
// (Definition 5) and the polynomial-time reduction of Lemmas 13/18
// (Koutris & Wijsen, PODS 2015, Section 6.5): given a premier Markov
// cycle C of a simplified query q, it rewrites q to dissolve(C, q) and an
// input database to a matching instance, strictly decreasing the number
// of mode-i atoms while preserving the certain answer.
package dissolve

import (
	"fmt"
	"sort"
	"strings"

	"cqa/internal/db"
	"cqa/internal/dgraph"
	"cqa/internal/evalctx"
	"cqa/internal/markov"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// Dissolution describes dissolve(C, q) together with everything the
// database reduction needs.
type Dissolution struct {
	Q     query.Query // the query being dissolved
	C     []query.Var // the Markov cycle x0, ..., x(k-1)
	Q0    query.Query // union of the Cq(xi)
	QStar query.Query // dissolve(C, q)
	TRel  schema.Relation
	URels []schema.Relation
	UVar  query.Var   // the fresh variable u
	YVars []query.Var // ȳ: vars(q0) minus the cycle variables, fixed order
	Xi    []query.VarSet

	m *markov.Graph
}

// Dissolve computes dissolve(C, q) per Definition 5. The cycle must be an
// elementary directed cycle of the Markov graph with Cq(y) nonempty for
// every y in C.
func Dissolve(q query.Query, m *markov.Graph, c []query.Var) (*Dissolution, error) {
	k := len(c)
	if k < 2 {
		return nil, fmt.Errorf("dissolve: cycle %v has length %d < 2", c, k)
	}
	seen := make(query.VarSet)
	for _, x := range c {
		if seen.Has(x) {
			return nil, fmt.Errorf("dissolve: cycle %v is not elementary", c)
		}
		seen.Add(x)
		if len(m.Cq(x)) == 0 {
			return nil, fmt.Errorf("dissolve: Cq(%s) is empty", x)
		}
	}
	for i := 0; i < k; i++ {
		if !m.HasEdge(c[i], c[(i+1)%k]) {
			return nil, fmt.Errorf("dissolve: %v is not a Markov cycle (%s -/-> %s)", c, c[i], c[(i+1)%k])
		}
	}

	dd := &Dissolution{Q: q, C: c, m: m}
	var q0Atoms []query.Atom
	for _, x := range c {
		q0Atoms = append(q0Atoms, m.Cq(x)...)
		dd.Xi = append(dd.Xi, m.CqVars(x))
	}
	dd.Q0 = query.NewQuery(q0Atoms...)
	cycleSet := query.NewVarSet(c...)
	dd.YVars = dd.Q0.Vars().Minus(cycleSet).Sorted()

	// Fresh variable u and fresh relation names.
	used := q.Vars()
	u := query.Var("u")
	for used.Has(u) {
		u += "'"
	}
	dd.UVar = u
	s := q.Schema()
	dd.TRel = schema.Relation{
		Name:   s.FreshName("Tdis"),
		Arity:  1 + k + len(dd.YVars),
		KeyLen: 1,
		Mode:   schema.ModeI,
	}
	s.MustAdd(dd.TRel)
	tArgs := make([]query.Term, 0, dd.TRel.Arity)
	tArgs = append(tArgs, query.V(u))
	for _, x := range c {
		tArgs = append(tArgs, query.V(x))
	}
	for _, y := range dd.YVars {
		tArgs = append(tArgs, query.V(y))
	}
	q1 := []query.Atom{{Rel: dd.TRel, Args: tArgs}}
	for i, x := range c {
		uRel := schema.Relation{
			Name:   s.FreshName(fmt.Sprintf("Udis%d", i)),
			Arity:  2,
			KeyLen: 1,
			Mode:   schema.ModeC,
		}
		s.MustAdd(uRel)
		dd.URels = append(dd.URels, uRel)
		q1 = append(q1, query.NewAtom(uRel, query.V(x), query.V(u)))
	}

	rest := q
	for _, a := range dd.Q0.Atoms {
		rest = rest.Remove(a)
	}
	dd.QStar = rest.Add(q1...)
	return dd, nil
}

// vertex identifies a vertex of G(db): a constant of layer i, the pool
// type(x_i) of the cycle's i-th variable. The paper's database is typed,
// so there a constant lies in one layer; keying by the layer builds the
// same graph on a database that is not typed.
type vertex struct {
	layer int
	c     query.Const
}

// edgeKey identifies a directed edge of G(db).
type edgeKey struct {
	layer int // i: edge goes from type(x_i) to type(x_(i+1 mod k))
	from  query.Const
	to    query.Const
}

// Stats reports what the reduction did, for ablation experiments.
type Stats struct {
	Matches        int // embeddings of q enumerated
	Vertices       int // vertices of G(db)
	Edges          int // edges of G(db)
	Components     int // strong components processed
	BadComponents  int // components deleted via Lemma 16
	KCycles        int // supported k-cycles encoded
	TFacts         int
	SupportFailure int // k-cycles rejected by the support check
	LongCycles     int // components with an elementary cycle longer than k
}

// TransformDB performs the reduction of Lemma 18: it encodes the strong
// components of G(db) whose elementary cycles all have length k and
// support q into T/U facts, deletes (by omission) the components Lemma 16
// lets us ignore, and returns a legal input for CERTAINTY(dissolve(C,q)).
//
// The database must be purified and gpurified relative to q, with every
// mode-i atom simple-key and the Cq-atoms free of constants and repeated
// variables — exactly the regime Lemma 12 establishes. It need not be
// typed: a vertex is a (layer, constant) pair. The
// checker is polled by the join that builds G(db); a tripped checker
// returns its error. A nil checker enforces nothing.
func (dd *Dissolution) TransformDB(d *db.DB, chk *evalctx.Checker) (*db.DB, Stats, error) {
	var st Stats
	k := len(dd.C)

	// 1. Build G(db): one edge (theta(x_i), theta(x_(i+1))) per embedding
	// and position, collecting the realizations theta[X_i].
	vid := make(map[vertex]int) // numbered in step 2
	realizations := make(map[edgeKey]map[string]query.Valuation)
	ix := match.NewIndex(d)
	ix.MatchChecked(dd.Q, query.Valuation{}, chk, func(v query.Valuation) bool {
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
			mu := v.Restrict(dd.Xi[i])
			reals[mu.Key()] = mu.Clone()
		}
		return true
	})
	if err := chk.Err(); err != nil {
		return nil, st, err
	}

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
		cycles, long := dd.analyzeComponent(g, comp, cIdx, verts)
		if long {
			st.LongCycles++
			st.BadComponents++
			continue
		}
		// Support check per cycle; all must support q to keep D.
		var supported [][]query.Const
		bad := false
		for _, cyc := range cycles {
			ok := dd.supports(cyc, realizations)
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
			if err := dd.emitCycle(out, cyc, dConst, realizations, &st); err != nil {
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

// analyzeComponent enumerates the elementary cycles of length k in the
// component (as constant sequences starting at layer 0) and reports
// whether an elementary cycle strictly longer than k exists.
func (dd *Dissolution) analyzeComponent(g *dgraph.Graph, comp []int, cIdx int, verts []vertex) (cycles [][]query.Const, long bool) {
	k := len(dd.C)
	inComp := func(v int) bool { return comp[v] == cIdx }

	// DFS all k-step layered paths from each layer-0 vertex.
	var starts []int
	for v := range verts {
		if inComp(v) && verts[v].layer == 0 {
			starts = append(starts, v)
		}
	}
	path := make([]int, 0, k+1)
	var rec func(v, depth, start int)
	rec = func(v, depth, start int) {
		if depth == k {
			if v == start {
				cyc := make([]query.Const, k)
				for i := 0; i < k; i++ {
					cyc[i] = verts[path[i]].c
				}
				cycles = append(cycles, cyc)
			} else if verts[v].layer == 0 && !long {
				// Path of length k between distinct layer-0 vertices:
				// check for a return path avoiding the interior
				// (the paper's decomposition of long elementary cycles).
				avoid := make(map[int]bool, k-1)
				for _, p := range path[1:] {
					avoid[p] = true
				}
				reach := g.ReachableAvoiding(v, avoid)
				if reach[start] {
					long = true
				}
			}
			return
		}
		for _, w := range g.Succ(v) {
			if !inComp(w) {
				continue
			}
			path = append(path, v)
			rec(w, depth+1, start)
			path = path[:len(path)-1]
			if long {
				return
			}
		}
	}
	for _, s := range starts {
		rec(s, 0, s)
		if long {
			return nil, true
		}
	}
	return cycles, false
}

// supports implements the support check: for all positions i ≠ j and all
// realizations µi, µj of the cycle's edges, µi and µj agree on Xi ∩ Xj.
func (dd *Dissolution) supports(cyc []query.Const, realizations map[edgeKey]map[string]query.Valuation) bool {
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
					if !mi.AgreesOn(mj, shared) {
						return false
					}
				}
			}
		}
	}
	return true
}

// emitCycle adds the T-facts for one supported k-cycle: one fact per
// element of the cross product ∆0 × ... × ∆(k-1) (Section 6.5). The
// support check guarantees the realizations merge into a well-defined
// valuation µ over the cycle variables and ȳ.
func (dd *Dissolution) emitCycle(out *db.DB, cyc []query.Const, dConst query.Const, realizations map[edgeKey]map[string]query.Valuation, st *Stats) error {
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
			if !mu.Compatible(cand) {
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
