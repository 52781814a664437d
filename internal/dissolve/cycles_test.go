package dissolve

import (
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/db"
	"cqa/internal/markov"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// buildLayeredInstance builds an input for the k-cycle query
// R1(x1|x2), ..., Rk(xk|x1) whose G(db) is exactly the given layered
// edge set (edges[i] maps a layer-i vertex id to its successors in layer
// i+1 mod k). Every fact is R_i(a | b), so embeddings of the query are
// precisely the k-cycles of the layered graph... and edges of G(db) are
// realized whenever they lie on some embedding.
func buildLayeredInstance(k int, edges []map[int][]int) (query.Query, *db.DB) {
	parts := make([]string, k)
	for i := 0; i < k; i++ {
		parts[i] = fmt.Sprintf("R%d(x%d | x%d)", i+1, i+1, (i+1)%k+1)
	}
	q := query.MustParse(joinComma(parts))
	d := db.New()
	for i := 0; i < k; i++ {
		rel := schema.NewRelation(fmt.Sprintf("R%d", i+1), 2, 1)
		for from, tos := range edges[i] {
			for _, to := range tos {
				d.Add(db.Fact{Rel: rel, Args: []query.Const{
					query.Const(fmt.Sprintf("x%d:v%d", i+1, from)),
					query.Const(fmt.Sprintf("x%d:v%d", (i+1)%k+1, to)),
				}})
			}
		}
	}
	return q, d
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

// realizedEdges restricts a layered graph to the edges of G(db): those
// lying on at least one closed k-walk (= an embedding of the k-cycle
// query; the walk visits each layer once, so it is an elementary cycle).
func realizedEdges(k int, edges []map[int][]int) []map[int][]int {
	out := make([]map[int][]int, k)
	for i := range out {
		out[i] = map[int][]int{}
	}
	var walk func(start, cur, layer int, path []int)
	walk = func(start, cur, layer int, path []int) {
		if layer == k {
			if cur == start {
				for i := 0; i < k; i++ {
					from := path[i]
					to := start
					if i+1 < k {
						to = path[i+1]
					}
					dup := false
					for _, t := range out[i][from] {
						if t == to {
							dup = true
							break
						}
					}
					if !dup {
						out[i][from] = append(out[i][from], to)
					}
				}
			}
			return
		}
		for _, nxt := range edges[layer][cur] {
			next := append(append([]int{}, path...), nxt)
			walk(start, nxt, layer+1, next)
		}
	}
	for v := range edges[0] {
		walk(v, v, 0, []int{v})
	}
	return out
}

// bruteLongCycle reports whether the layered graph has an elementary
// cycle of length strictly greater than k, by exhaustive DFS over
// elementary cycles (vertex-distinct paths returning to the start).
func bruteLongCycle(k int, edges []map[int][]int) bool {
	type node struct{ layer, id int }
	var adj func(n node) []node
	adj = func(n node) []node {
		var out []node
		for _, to := range edges[n.layer][n.id] {
			out = append(out, node{(n.layer + 1) % k, to})
		}
		return out
	}
	var found bool
	var dfs func(start, cur node, visited map[node]bool, depth int)
	dfs = func(start, cur node, visited map[node]bool, depth int) {
		if found {
			return
		}
		for _, nxt := range adj(cur) {
			if nxt == start {
				if depth+1 > k {
					found = true
					return
				}
				continue
			}
			if visited[nxt] {
				continue
			}
			visited[nxt] = true
			dfs(start, nxt, visited, depth+1)
			delete(visited, nxt)
		}
	}
	for l := 0; l < k; l++ {
		for id := range edges[l] {
			start := node{l, id}
			dfs(start, start, map[node]bool{start: true}, 0)
			if found {
				return true
			}
		}
	}
	return false
}

// TestLongCycleDetectionAgainstBruteForce: the paper's decomposition-
// based long-cycle detector inside TransformDB agrees with exhaustive
// elementary-cycle search on random layered graphs, for k = 2 and 3.
// Only instances whose G(db) is strongly connected (one component, the
// gpurified regime) are meaningful; others are skipped.
func TestLongCycleDetectionAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	checked := 0
	for trial := 0; trial < 4000 && checked < 250; trial++ {
		k := 2 + rng.Intn(2)
		perLayer := 1 + rng.Intn(3)
		edges := make([]map[int][]int, k)
		for i := range edges {
			edges[i] = map[int][]int{}
			for v := 0; v < perLayer; v++ {
				// 1..2 out-edges per vertex keeps components cyclic.
				n := 1 + rng.Intn(2)
				for e := 0; e < n; e++ {
					to := rng.Intn(perLayer)
					edges[i][v] = append(edges[i][v], to)
				}
			}
		}
		q, d := buildLayeredInstance(k, edges)
		m, err := markov.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		cycleVars := make([]query.Var, k)
		for i := 0; i < k; i++ {
			cycleVars[i] = query.Var(fmt.Sprintf("x%d", i+1))
		}
		dd, err := Dissolve(q, m, cycleVars)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := match.NewIndex(d).Constraints(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := dd.TransformDB(cs, nil)
		if err != nil {
			// Cross-component edges: the instance is not gpurified; the
			// reduction correctly refuses. Skip.
			continue
		}
		if st.Components != 1 {
			continue // brute force below checks the whole graph at once
		}
		checked++
		want := bruteLongCycle(k, realizedEdges(k, edges))
		got := st.LongCycles > 0
		if got != want {
			t.Fatalf("k=%d: detector=%v brute=%v\nedges=%v", k, got, want, edges)
		}
	}
	if checked < 60 {
		t.Fatalf("only %d single-component instances checked", checked)
	}
	t.Logf("checked %d instances", checked)
}
