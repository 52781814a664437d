// Package dgraph provides the small directed-graph toolkit used by attack
// graphs, Markov graphs, and the dissolution reduction: adjacency,
// reachability, Tarjan strongly connected components, condensation with
// initial components, and shortest cycles through a vertex.
package dgraph

import (
	"slices"
	"sort"
)

// Graph is a directed graph on vertices 0..N-1, stored as one successor
// list per vertex. A graph built edge by edge (New, AddEdge) grows each
// list on its own; one built from its edges at once (FromEdges) is in
// compressed sparse row form, its lists windows of one slab.
type Graph struct {
	n   int
	adj [][]int
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// FromEdges returns the graph on n vertices with the m edges
// ends(0), ..., ends(m-1), in compressed sparse row form. Each vertex's
// successors keep the order in which the edges are given, so for edges
// sorted by (u, v) Succ(u) ascends. The edges must be distinct.
func FromEdges(n, m int, ends func(i int) (u, v int)) *Graph {
	// Count each vertex's edges and sum them, so that off[u] ends u's
	// run; then fill the runs back to front, leaving off[u] at their
	// starts.
	off := make([]int, n+1)
	for i := 0; i < m; i++ {
		u, _ := ends(i)
		off[u]++
	}
	for u := 1; u <= n; u++ {
		off[u] += off[u-1]
	}
	succ := make([]int, m)
	for i := m - 1; i >= 0; i-- {
		u, v := ends(i)
		off[u]--
		succ[off[u]] = v
	}
	g := New(n)
	for u := range g.adj {
		g.adj[u] = succ[off[u]:off[u+1]:off[u+1]]
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the directed edge u -> v (idempotent). It scans u's
// successors, which suits the query-sized graphs built edge by edge.
func (g *Graph) AddEdge(u, v int) {
	if !g.HasEdge(u, v) {
		g.adj[u] = append(g.adj[u], v)
	}
}

// HasEdge reports whether u -> v is present.
func (g *Graph) HasEdge(u, v int) bool {
	return slices.Contains(g.adj[u], v)
}

// Succ returns the successors of u in insertion order.
func (g *Graph) Succ(u int) []int { return g.adj[u] }

// Edges returns all edges sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			out = append(out, [2]int{u, v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Reachable returns the set of vertices reachable from start (including
// start itself) as a boolean slice.
func (g *Graph) Reachable(start int) []bool {
	seen := make([]bool, g.n)
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// Search answers reachability questions on one graph over buffers sized
// once. Each question marks vertices with a fresh stamp instead of
// clearing a visited set, so it costs what it visits, not the graph's
// size.
type Search struct {
	g     *Graph
	stamp []uint32 // stamp[v] == gen: v is marked in the current question
	gen   uint32
	stack []int
}

// NewSearch returns a search over g.
func (g *Graph) NewSearch() *Search {
	return &Search{g: g, stamp: make([]uint32, g.n)}
}

// ReachesAvoiding reports whether to is reachable from from (a vertex
// reaches itself) on a path through no vertex of avoid. A from in avoid
// reaches nothing.
func (s *Search) ReachesAvoiding(from, to int, avoid []int) bool {
	if s.gen++; s.gen == 0 { // the stamps wrapped: forget them all
		clear(s.stamp)
		s.gen = 1
	}
	for _, v := range avoid {
		s.stamp[v] = s.gen
	}
	if s.stamp[from] == s.gen {
		return false
	}
	s.stamp[from] = s.gen
	s.stack = append(s.stack[:0], from)
	for len(s.stack) > 0 {
		u := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if u == to {
			return true
		}
		for _, v := range s.g.adj[u] {
			if s.stamp[v] != s.gen {
				s.stamp[v] = s.gen
				s.stack = append(s.stack, v)
			}
		}
	}
	return false
}

// SCC computes strongly connected components with Tarjan's algorithm.
// It returns comp, the component index of each vertex, and the number of
// components. Component indices are in reverse topological order of the
// condensation (a component's successors have smaller indices).
func (g *Graph) SCC() (comp []int, ncomp int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	counter := 0

	// Iterative Tarjan to avoid recursion depth limits on large graphs.
	type frame struct {
		v, ei int
	}
	var frames []frame
	for root := 0; root < g.n; root++ {
		if index[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{root, 0})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < len(g.adj[v]) {
				w := g.adj[v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}

// Condensation returns the DAG of strongly connected components: comp and
// ncomp as in SCC, plus the condensed graph whose vertices are component
// indices.
func (g *Graph) Condensation() (comp []int, ncomp int, dag *Graph) {
	comp, ncomp = g.SCC()
	dag = New(ncomp)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if comp[u] != comp[v] {
				dag.AddEdge(comp[u], comp[v])
			}
		}
	}
	return comp, ncomp, dag
}

// InitialComponents returns, per Definition 1 of the paper, the strong
// components that have no predecessor: component indices with indegree
// zero in the condensation.
func (g *Graph) InitialComponents() (comp []int, initial []bool) {
	comp, ncomp, dag := g.Condensation()
	indeg := make([]int, ncomp)
	for u := 0; u < ncomp; u++ {
		for _, v := range dag.adj[u] {
			indeg[v]++
		}
	}
	initial = make([]bool, ncomp)
	for c := 0; c < ncomp; c++ {
		initial[c] = indeg[c] == 0
	}
	return comp, initial
}

// HasCycle reports whether the graph contains a directed cycle
// (a self-loop or a strongly connected component of size >= 2).
func (g *Graph) HasCycle() bool {
	comp, ncomp := g.SCC()
	size := make([]int, ncomp)
	for _, c := range comp {
		size[c]++
	}
	for u := 0; u < g.n; u++ {
		if g.HasEdge(u, u) {
			return true
		}
	}
	for _, s := range size {
		if s >= 2 {
			return true
		}
	}
	return false
}

// ShortestCycleThrough returns a shortest directed cycle through v as a
// vertex sequence v, w1, ..., wk (the closing edge wk -> v is implicit),
// or nil if v lies on no cycle. BFS from each successor of v back to v.
func (g *Graph) ShortestCycleThrough(v int) []int {
	best := []int(nil)
	for _, s := range g.Succ(v) {
		if s == v {
			return []int{v} // self-loop
		}
		// BFS from s to v.
		prev := make([]int, g.n)
		for i := range prev {
			prev[i] = -2
		}
		prev[s] = -1
		queue := []int{s}
		found := false
		for len(queue) > 0 && !found {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[u] {
				if prev[w] != -2 {
					continue
				}
				prev[w] = u
				if w == v {
					found = true
					break
				}
				queue = append(queue, w)
			}
		}
		if !found {
			continue
		}
		// Reconstruct path s..v, then rotate so the cycle starts at v.
		var rev []int
		for u := prev[v]; u != -1; u = prev[u] {
			rev = append(rev, u)
		}
		// rev holds the path from the vertex before v back to s.
		cycle := []int{v}
		for i := len(rev) - 1; i >= 0; i-- {
			cycle = append(cycle, rev[i])
		}
		if best == nil || len(cycle) < len(best) {
			best = cycle
		}
	}
	return best
}
