// Package dissolve implements the dissolution of Markov cycles
// (Definition 5) and the polynomial-time reduction of Lemmas 13/18
// (Koutris & Wijsen, PODS 2015, Section 6.5): given a premier Markov
// cycle C of a simplified query q, it rewrites q to dissolve(C, q) and an
// input database to a matching instance, strictly decreasing the number
// of mode-i atoms while preserving the certain answer. The database side
// joins nothing: it reads the embeddings of q off the gpurified
// repair-constraint form (match.GPurify) into one sorted slab of rows.
package dissolve

import (
	"cmp"
	"fmt"
	"slices"
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

	dd := &Dissolution{Q: q, C: c}
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

// Stats reports what the reduction did, for ablation experiments.
type Stats struct {
	Matches        int // embeddings of q read
	Vertices       int // vertices of G(db)
	Edges          int // edges of G(db)
	Components     int // strong components processed
	BadComponents  int // components deleted via Lemma 16
	KCycles        int // supported k-cycles encoded
	TFacts         int
	SupportFailure int // k-cycles rejected by the support check
	LongCycles     int // components with an elementary cycle longer than k
}

// layer locates in q what layer i of G(db) reads from an embedding:
// the cycle variable x_i, whose value is the vertex, and the variables
// X_i of the realization, by name. x is a key position when x_i has
// one, and then xKey is set: the block alone decides the vertex.
type layer struct {
	x     match.Arg
	xKey  bool
	names []query.Var
	args  []match.Arg // of names
	cmp   []int       // the indices of names that the edge leaves open: not x_i, not x_(i+1)
}

// row is the edge and realization that the embedding of constraint con
// yields at layer i: the edge (θ(x_i), θ(x_(i+1))) between the vertices
// numbered from and to, and the realization θ[X_i].
type row struct{ layer, con, from, to int32 }

// edge is an edge of G(db) between the vertices numbered from and to,
// realized by the rows [lo, hi).
type edge struct{ from, to, lo, hi int }

// gdb is G(db) read off a form of q: one slab of rows, sorted by edge
// and then by realization with duplicate realizations dropped, the
// vertices, and the edges over the slab. Each variable of ȳ is read
// from the realizations of the first layer whose X_i holds it.
type gdb struct {
	cs     *match.Constraints
	layers []layer
	ys     []struct{ layer, at int } // by ȳ: the layer, and the index in its args
	rows   []row
	verts  []vertex
	edges  []edge
}

func (g *gdb) value(r row, a match.Arg) query.Const { return g.cs.Value(int(r.con), a) }

// cmpEdge orders rows by edge: by the numbers of θ(x_i) and
// θ(x_(i+1)). A vertex lies in one layer, so its number decides the
// layer.
func (g *gdb) cmpEdge(r, s row) int {
	return cmp.Or(int(r.from-s.from), int(r.to-s.to))
}

// sortRows sorts the rows as cmpRow orders them: by edge with two
// stable counting passes over the vertex numbers, then each edge's run
// by realization, where the layer leaves some variable open.
func (g *gdb) sortRows() {
	tmp := make([]row, len(g.rows))
	count := make([]int32, len(g.verts)+1)
	pass := func(dst, src []row, key func(row) int32) {
		clear(count)
		for _, r := range src {
			count[key(r)+1]++
		}
		for v := 1; v < len(count); v++ {
			count[v] += count[v-1]
		}
		for _, r := range src {
			dst[count[key(r)]] = r
			count[key(r)]++
		}
	}
	pass(tmp, g.rows, func(r row) int32 { return r.to })
	pass(g.rows, tmp, func(r row) int32 { return r.from })
	for lo := 0; lo < len(g.rows); {
		hi := lo + 1
		for hi < len(g.rows) && g.cmpEdge(g.rows[lo], g.rows[hi]) == 0 {
			hi++
		}
		if len(g.layers[g.rows[lo].layer].cmp) > 0 {
			slices.SortFunc(g.rows[lo:hi], g.cmpRow)
		}
		lo = hi
	}
}

// cmpRow orders rows by edge and then by realization, in the order of
// the realizations' query.Valuation.Key strings: the text
// x1=c1,x2=c2,... over X_i by name. Rows of one edge agree on x_i and
// x_(i+1), so only the other variables are compared. Constants compare
// as strings until one is a proper prefix of the other; the text after
// it, which goes on with the next variable, then decides.
func (g *gdb) cmpRow(r, s row) int {
	if c := g.cmpEdge(r, s); c != 0 {
		return c
	}
	l := &g.layers[r.layer]
	for _, j := range l.cmp {
		a := l.args[j]
		x, y := g.value(r, a), g.value(s, a)
		if x == y {
			continue
		}
		if n := min(len(x), len(y)); x[:n] != y[:n] || j == len(l.args)-1 {
			return strings.Compare(string(x), string(y))
		}
		return strings.Compare(g.keyTail(r, j), g.keyTail(s, j))
	}
	return 0
}

// keyTail is the text of r's realization key from its j-th constant on.
func (g *gdb) keyTail(r row, j int) string {
	l := &g.layers[r.layer]
	var b strings.Builder
	b.WriteString(string(g.value(r, l.args[j])))
	for j++; j < len(l.args); j++ {
		b.WriteString("," + string(l.names[j]) + "=" + string(g.value(r, l.args[j])))
	}
	return b.String()
}

// cycleEdges returns the edges of a cycle given by its vertices, one
// per layer.
func (g *gdb) cycleEdges(cyc []int) []edge {
	k := len(cyc)
	es := make([]edge, k)
	for i, v := range cyc {
		j, _ := slices.BinarySearchFunc(g.edges, edge{from: v, to: cyc[(i+1)%k]}, func(e, t edge) int {
			return cmp.Or(e.from-t.from, e.to-t.to)
		})
		es[i] = g.edges[j]
	}
	return es
}

// TransformDB performs the reduction of Lemma 18: it encodes the strong
// components of G(db) whose elementary cycles all have length k and
// support q into T/U facts, deletes (by omission) the components Lemma 16
// lets us ignore, and returns a legal input for CERTAINTY(dissolve(C,q)).
//
// The database is given by a repair-constraint form of q over it, every
// constraint of which is read as an embedding (match.GPurify returns
// such a form): it must be purified and gpurified relative to q, with
// every mode-i atom simple-key and the Cq-atoms free of constants and
// repeated variables — exactly the regime Lemma 12 establishes. It need
// not be typed: a vertex is a (layer, constant) pair. G(db) is built
// once, as a CSR over the sorted, deduplicated edges, and no join of q
// runs: on a level where Lemma 12 changed nothing, the one join of the
// level is purification's. The output holds the form's blocks outside
// the Cq-atoms' relations, then the T and U facts. The checker is
// polled once per constraint read, per edge of G(db), per strong
// component and per step of the cycle search; a tripped checker returns
// its error. A nil checker enforces nothing.
func (dd *Dissolution) TransformDB(cs *match.Constraints, chk *evalctx.Checker) (*db.DB, Stats, error) {
	k := len(dd.C)
	st := Stats{Matches: len(cs.Cons)}
	g := &gdb{cs: cs, layers: make([]layer, k)}
	for i := range g.layers {
		l := &g.layers[i]
		l.x, l.xKey = keyArgOf(dd.Q, dd.C[i])
		l.names = dd.Xi[i].Sorted()
		for j, v := range l.names {
			l.args = append(l.args, match.ArgOf(dd.Q, v))
			if v != dd.C[i] && v != dd.C[(i+1)%k] {
				l.cmp = append(l.cmp, j)
			}
		}
	}
	g.ys = make([]struct{ layer, at int }, len(dd.YVars))
	for n, y := range dd.YVars {
		i := slices.IndexFunc(dd.Xi, func(x query.VarSet) bool { return x.Has(y) })
		g.ys[n].layer, g.ys[n].at = i, slices.Index(g.layers[i].names, y)
	}

	// 1. Vertex numbering. Vertices sort as their typed constants x_i:c
	// would: by the string x_i + ":", then by constant. That fixes the
	// component order, and with it the Dcomp names and the T-fact order.
	// A constraint reads θ(x_i) off one fact, or off one block when x_i
	// has a key position, so each layer first collects its distinct
	// facts or blocks, through a dense array over the form's facts, and
	// string-sorts only their constants. vid[ci*k+i] numbers the vertex
	// θ(x_i) of constraint ci.
	n := len(cs.Cons)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return strings.Compare(string(dd.C[a])+":", string(dd.C[b])+":")
	})
	off := make([]int32, len(cs.Blocks)+1) // block b's facts are numbered off[b] on
	for b, blk := range cs.Blocks {
		off[b+1] = off[b] + int32(len(blk.Facts))
	}
	type distinct struct {
		c query.Const
		f int32 // the fact read (the block's first, at a key position)
	}
	var ds []distinct
	vof := make([]int32, off[len(cs.Blocks)]) // per fact read in the layer at hand: its vertex + 1; 0 = not met, -1 = not yet numbered
	vid := make([]int32, n*k)
	g.verts = make([]vertex, 0, n*k)
	for _, i := range order {
		l := &g.layers[i]
		read := func(con []match.Ref) int32 {
			r := con[l.x.Atom]
			if l.xKey {
				return off[r.Block]
			}
			return off[r.Block] + r.Slot
		}
		ds = ds[:0]
		for ci, con := range cs.Cons {
			if err := chk.Step(); err != nil {
				return nil, st, err
			}
			if f := read(con); vof[f] == 0 {
				ds = append(ds, distinct{cs.Value(ci, l.x), f})
				vof[f] = -1
			}
		}
		slices.SortFunc(ds, func(a, b distinct) int { return strings.Compare(string(a.c), string(b.c)) })
		for j, e := range ds {
			if j == 0 || e.c != ds[j-1].c {
				g.verts = append(g.verts, vertex{i, e.c})
			}
			vof[e.f] = int32(len(g.verts))
		}
		for ci, con := range cs.Cons {
			vid[ci*k+i] = vof[read(con)] - 1
		}
		for _, e := range ds {
			vof[e.f] = 0
		}
	}

	// 2. G(db): one row per embedding and position, sorted by edge and
	// realization, so that duplicate realizations sit together and each
	// edge's realizations form one run. The graph is built from the
	// sorted edges at once.
	g.rows = make([]row, 0, k*n)
	for ci := range cs.Cons {
		if err := chk.Step(); err != nil {
			return nil, st, err
		}
		for i := 0; i < k; i++ {
			g.rows = append(g.rows, row{int32(i), int32(ci), vid[ci*k+i], vid[ci*k+(i+1)%k]})
		}
	}
	g.sortRows()
	g.rows = slices.CompactFunc(g.rows, func(r, s row) bool { return g.cmpRow(r, s) == 0 })
	g.edges = make([]edge, 0, len(g.rows))
	for i, r := range g.rows {
		if i > 0 && g.cmpEdge(g.rows[i-1], r) == 0 {
			g.edges[len(g.edges)-1].hi++
			continue
		}
		if err := chk.Step(); err != nil {
			return nil, st, err
		}
		g.edges = append(g.edges, edge{int(r.from), int(r.to), i, i + 1})
	}
	gr := dgraph.FromEdges(len(g.verts), len(g.edges), func(i int) (int, int) { return g.edges[i].from, g.edges[i].to })
	st.Vertices, st.Edges = len(g.verts), len(g.edges)
	comp, ncomp := gr.SCC()

	// After gpurification every strong component is initial: no edge may
	// cross components.
	for _, e := range g.edges {
		if comp[e.from] != comp[e.to] {
			return nil, st, fmt.Errorf("dissolve: edge %s -> %s crosses strong components; database is not gpurified", g.verts[e.from].c, g.verts[e.to].c)
		}
	}

	// 3. Process each component.
	q0Rels := make([]string, len(dd.Q0.Atoms))
	for i, a := range dd.Q0.Atoms {
		q0Rels[i] = a.Rel.Name
	}
	out := cs.Copy(q0Rels...)

	compVerts := make([][]int, ncomp)
	for v, c := range comp {
		compVerts[c] = append(compVerts[c], v)
	}
	search := gr.NewSearch()
	// Adjacency restricted by component is the whole graph (components
	// are edge-closed as checked above), and every vertex starts an edge.
	for cIdx := 0; cIdx < ncomp; cIdx++ {
		if err := chk.Step(); err != nil {
			return nil, st, err
		}
		st.Components++
		cycles, long, err := dd.analyzeComponent(gr, compVerts[cIdx], g.verts, search, chk)
		if err != nil {
			return nil, st, err
		}
		if long {
			st.LongCycles++
			st.BadComponents++
			continue
		}
		// Support check per cycle; all must support q to keep D.
		edges := make([][]edge, len(cycles))
		for n, cyc := range cycles {
			edges[n] = g.cycleEdges(cyc)
		}
		if slices.ContainsFunc(edges, func(es []edge) bool { return !dd.supports(g, es) }) {
			st.SupportFailure++
			st.BadComponents++
			continue
		}
		if len(cycles) == 0 {
			// A strongly connected component with an edge contains a
			// cycle; its length is a multiple of k, and no k-cycle means
			// a longer one exists.
			st.LongCycles++
			st.BadComponents++
			continue
		}
		// 4. Encode the component.
		dConst := query.Const(fmt.Sprintf("Dcomp%d", cIdx))
		for n, cyc := range cycles {
			st.KCycles++
			st.TFacts += dd.emitCycle(out, g, cyc, edges[n], dConst)
		}
		for i := 0; i < k; i++ {
			// U_i facts: every vertex of the component in layer i points
			// to the component constant.
			for _, v := range compVerts[cIdx] {
				if g.verts[v].layer == i {
					out.Add(db.Fact{Rel: dd.URels[i], Args: []query.Const{g.verts[v].c, dConst}})
				}
			}
		}
	}
	return out, st, nil
}

// keyArgOf returns a position of v in q, a key position when v has one,
// and whether it is one.
func keyArgOf(q query.Query, v query.Var) (match.Arg, bool) {
	for i, a := range q.Atoms {
		for j, t := range a.KeyArgs() {
			if t.IsVar() && t.Var() == v {
				return match.Arg{Atom: i, Pos: j}, true
			}
		}
	}
	return match.ArgOf(q, v), false
}

// analyzeComponent enumerates the elementary cycles of length k in the
// component with the given member vertices (as vertex sequences
// starting at layer 0) and reports whether an elementary cycle strictly
// longer than k exists. The component must be edge-closed. Its
// reachability questions run on search. The checker is polled once per
// step of the path search; a tripped checker returns its error.
func (dd *Dissolution) analyzeComponent(g *dgraph.Graph, members []int, verts []vertex, search *dgraph.Search, chk *evalctx.Checker) (cycles [][]int, long bool, err error) {
	k := len(dd.C)
	// DFS all k-step layered paths from each layer-0 vertex.
	path := make([]int, 0, k+1)
	var rec func(v, depth, start int)
	rec = func(v, depth, start int) {
		if err = chk.Step(); err != nil {
			return
		}
		if depth == k {
			if v == start {
				cycles = append(cycles, slices.Clone(path))
			} else if verts[v].layer == 0 && !long {
				// Path of length k between distinct layer-0 vertices:
				// check for a return path avoiding the interior
				// (the paper's decomposition of long elementary cycles).
				long = search.ReachesAvoiding(v, start, path[1:])
			}
			return
		}
		for _, w := range g.Succ(v) {
			path = append(path, v)
			rec(w, depth+1, start)
			path = path[:len(path)-1]
			if long || err != nil {
				return
			}
		}
	}
	for _, s := range members {
		if verts[s].layer != 0 {
			continue
		}
		if rec(s, 0, s); err != nil {
			return nil, false, err
		}
		if long {
			return nil, true, nil
		}
	}
	return cycles, false, nil
}

// supports implements the support check on a cycle given by its edges:
// for all positions i ≠ j and all realizations µi, µj of the cycle's
// edges, µi and µj agree on Xi ∩ Xj.
func (dd *Dissolution) supports(g *gdb, es []edge) bool {
	for i := range es {
		for j := i + 1; j < len(es); j++ {
			for n, v := range g.layers[i].names {
				if !dd.Xi[j].Has(v) {
					continue
				}
				a := g.layers[i].args[n]
				for _, ri := range g.rows[es[i].lo:es[i].hi] {
					for _, rj := range g.rows[es[j].lo:es[j].hi] {
						if g.value(ri, a) != g.value(rj, a) {
							return false
						}
					}
				}
			}
		}
	}
	return true
}

// emitCycle adds the T-facts for one supported k-cycle, given by its
// vertices and its edges, and returns their number: one fact per
// element of the cross product ∆0 × ... × ∆(k-1) of its edges'
// realizations (Section 6.5). The support check guarantees the
// realizations merge into a well-defined valuation µ over the cycle
// variables and ȳ, so each y of ȳ can be read from any realization
// that binds it.
func (dd *Dissolution) emitCycle(out *db.DB, g *gdb, cyc []int, es []edge, dConst query.Const) int {
	idx := make([]int, len(es))
	for emitted := 1; ; emitted++ {
		args := make([]query.Const, 0, dd.TRel.Arity)
		args = append(args, dConst)
		for _, v := range cyc {
			args = append(args, g.verts[v].c)
		}
		for _, y := range g.ys {
			args = append(args, g.value(g.rows[es[y.layer].lo+idx[y.layer]], g.layers[y.layer].args[y.at]))
		}
		out.Add(db.Fact{Rel: dd.TRel, Args: args})
		// Advance the odometer over the cross product.
		i := len(es) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < es[i].hi-es[i].lo {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return emitted
		}
	}
}
