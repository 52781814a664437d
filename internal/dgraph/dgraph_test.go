package dgraph

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddEdgeIdempotent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if len(g.Succ(0)) != 1 {
		t.Errorf("duplicate edge stored")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
	if len(g.Edges()) != 1 {
		t.Error("Edges wrong")
	}
}

func TestReachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	r := g.Reachable(0)
	if !r[0] || !r[1] || !r[2] || r[3] {
		t.Errorf("reach = %v", r)
	}
}

func TestReachableAvoiding(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 2)
	s := g.NewSearch()
	for to, want := range []bool{true, false, true, true} {
		if got := s.ReachesAvoiding(0, to, []int{1}); got != want {
			t.Errorf("0 reaches %d avoiding 1: %v, want %v", to, got, want)
		}
	}
	if s.ReachesAvoiding(0, 2, []int{1, 3}) {
		t.Error("0 reaches 2 with both middle vertices avoided")
	}
	for _, to := range []int{1, 2} {
		if s.ReachesAvoiding(1, to, []int{1}) {
			t.Errorf("avoided start 1 should reach nothing, reached %d", to)
		}
	}
}

// randomEdges draws up to 3n distinct edges on n vertices, in random
// order.
func randomEdges(rng *rand.Rand, n int) [][2]int {
	seen := map[[2]int]bool{}
	var es [][2]int
	for e := 0; e < 3*n; e++ {
		uv := [2]int{rng.Intn(n), rng.Intn(n)}
		if !seen[uv] {
			seen[uv] = true
			es = append(es, uv)
		}
	}
	return es
}

// TestFromEdges: the graph built from its edges at once equals the one
// built edge by edge from the same edges: each vertex's successors in
// the order the edges come (ascending when the edges are sorted), the
// same HasEdge and Edges, the same components. AddEdge on it leaves the
// other vertices' successors alone.
func TestFromEdges(t *testing.T) {
	f := func(seed int64, sorted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		es := randomEdges(rng, n)
		if sorted {
			slices.SortFunc(es, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
		}
		byOne := New(n)
		for _, e := range es {
			byOne.AddEdge(e[0], e[1])
		}
		csr := FromEdges(n, len(es), func(i int) (int, int) { return es[i][0], es[i][1] })
		for u := 0; u < n; u++ {
			if !slices.Equal(csr.Succ(u), byOne.Succ(u)) {
				return false
			}
			if sorted && !slices.IsSorted(csr.Succ(u)) {
				return false
			}
			for v := 0; v < n; v++ {
				if csr.HasEdge(u, v) != byOne.HasEdge(u, v) {
					return false
				}
			}
		}
		c1, n1 := csr.SCC()
		c2, n2 := byOne.SCC()
		if n1 != n2 || !slices.Equal(c1, c2) || !slices.Equal(csr.Edges(), byOne.Edges()) {
			return false
		}
		before := make([][]int, n)
		for u := range before {
			before[u] = slices.Clone(csr.Succ(u))
		}
		u, v := rng.Intn(n), rng.Intn(n)
		csr.AddEdge(u, v)
		for w := 0; w < n; w++ {
			want := before[w]
			if w == u && !slices.Contains(want, v) {
				want = append(want, v)
			}
			if !slices.Equal(csr.Succ(w), want) {
				return false
			}
		}
		return csr.HasEdge(u, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSearchReused: one Search answers many questions on one graph,
// across a wrap of its stamps, and each answer is the one a fresh
// search gives: to is marked in the reachability of from over the graph
// with the avoided vertices' edges removed.
func TestSearchReused(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		es := randomEdges(rng, n)
		g := FromEdges(n, len(es), func(i int) (int, int) { return es[i][0], es[i][1] })
		s := g.NewSearch()
		for q := 0; q < 20; q++ {
			if q == 10 {
				s.gen = math.MaxUint32 // the next question wraps the stamps
			}
			from, to := rng.Intn(n), rng.Intn(n)
			var avoid []int
			for v := 0; v < n; v++ {
				if rng.Intn(4) == 0 {
					avoid = append(avoid, v)
				}
			}
			cut := New(n)
			for _, e := range es {
				if !slices.Contains(avoid, e[0]) && !slices.Contains(avoid, e[1]) {
					cut.AddEdge(e[0], e[1])
				}
			}
			want := !slices.Contains(avoid, from) && cut.Reachable(from)[to]
			if s.ReachesAvoiding(from, to, avoid) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSCCLine(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("ncomp = %d", n)
	}
	// Reverse topological: successors get smaller component ids.
	if !(comp[2] < comp[1] && comp[1] < comp[0]) {
		t.Errorf("comp = %v", comp)
	}
}

func TestSCCCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(3, 0)
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("ncomp = %d (comp=%v)", n, comp)
	}
	if comp[0] != comp[1] || comp[0] == comp[2] || comp[0] == comp[3] {
		t.Errorf("comp = %v", comp)
	}
}

func TestInitialComponents(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(3, 2)
	comp, initial := g.InitialComponents()
	if !initial[comp[0]] || !initial[comp[3]] {
		t.Errorf("components of 0 and 3 should be initial")
	}
	if initial[comp[2]] {
		t.Errorf("component of 2 has predecessors")
	}
}

func TestHasCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.HasCycle() {
		t.Error("DAG reported cyclic")
	}
	g.AddEdge(2, 0)
	if !g.HasCycle() {
		t.Error("cycle missed")
	}
	selfloop := New(1)
	selfloop.AddEdge(0, 0)
	if !selfloop.HasCycle() {
		t.Error("self-loop missed")
	}
}

func TestShortestCycleThrough(t *testing.T) {
	g := New(5)
	// Two cycles through 0: 0-1-2-0 (len 3) and 0-3-0 (len 2).
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(0, 3)
	g.AddEdge(3, 0)
	c := g.ShortestCycleThrough(0)
	if len(c) != 2 || c[0] != 0 || c[1] != 3 {
		t.Errorf("cycle = %v, want [0 3]", c)
	}
	if got := g.ShortestCycleThrough(4); got != nil {
		t.Errorf("vertex 4 is on no cycle, got %v", got)
	}
	loop := New(1)
	loop.AddEdge(0, 0)
	if got := loop.ShortestCycleThrough(0); len(got) != 1 {
		t.Errorf("self-loop cycle = %v", got)
	}
}

// Property: for random graphs, every cycle returned by
// ShortestCycleThrough consists of real edges and closes up.
func TestShortestCycleValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		g := New(n)
		for e := 0; e < 2*n; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		for v := 0; v < n; v++ {
			c := g.ShortestCycleThrough(v)
			if c == nil {
				continue
			}
			if c[0] != v {
				return false
			}
			for i := 0; i < len(c); i++ {
				if !g.HasEdge(c[i], c[(i+1)%len(c)]) {
					return false
				}
			}
			seen := map[int]bool{}
			for _, u := range c {
				if seen[u] {
					return false // not elementary
				}
				seen[u] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SCC partitions agree with mutual reachability.
func TestSCCMatchesReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		g := New(n)
		for e := 0; e < 2*n; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		comp, _ := g.SCC()
		reach := make([][]bool, n)
		for v := 0; v < n; v++ {
			reach[v] = g.Reachable(v)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				mutual := reach[u][v] && reach[v][u]
				if mutual != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCondensation(t *testing.T) {
	g := New(5)
	// SCC {0,1} -> SCC {2,3} -> {4}
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	g.AddEdge(3, 4)
	comp, ncomp, dag := g.Condensation()
	if ncomp != 3 {
		t.Fatalf("ncomp = %d", ncomp)
	}
	if !dag.HasEdge(comp[0], comp[2]) || !dag.HasEdge(comp[2], comp[4]) {
		t.Errorf("condensation edges wrong")
	}
	if dag.HasEdge(comp[0], comp[0]) {
		t.Errorf("condensation must have no self-loops")
	}
}
