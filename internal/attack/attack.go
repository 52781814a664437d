// Package attack implements attack graphs (Section 4 of Koutris & Wijsen,
// PODS 2015) for self-join-free Boolean conjunctive queries, together with
// the trichotomy classification of Theorem 1:
//
//   - acyclic attack graph            -> CERTAINTY(q) in FO
//   - cyclic, no strong cycle         -> CERTAINTY(q) in P, L-hard (not FO)
//   - strong cycle                    -> CERTAINTY(q) coNP-complete
package attack

import (
	"fmt"
	"sort"
	"strings"

	"cqa/internal/dgraph"
	"cqa/internal/fd"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// Class is the complexity class of CERTAINTY(q) per Theorem 1.
type Class int

const (
	// FO: the certain answer is first-order expressible (consistent
	// first-order rewriting exists).
	FO Class = iota
	// PTime: in P but L-hard, hence not in FO.
	PTime
	// CoNPComplete: coNP-complete.
	CoNPComplete
)

// String renders the class the way the paper writes it.
func (c Class) String() string {
	switch c {
	case FO:
		return "FO"
	case PTime:
		return "P\\FO"
	case CoNPComplete:
		return "coNP-complete"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Graph is the attack graph of a self-join-free Boolean conjunctive query.
// Vertices are atom indices into Q.Atoms.
type Graph struct {
	Q query.Query
	// Plus[i] is F^{+,q} for atom i: the closure of key(F) under
	// K((q \ {F}) ∪ [[q]]).
	Plus []query.VarSet
	// Edge[i][j] reports an attack from atom i to atom j.
	Edge [][]bool
	// WeakEdge[i][j] reports whether the attack i -> j is weak
	// (K(q) |= key(F) -> key(G)); meaningful only where Edge[i][j].
	WeakEdge [][]bool
	// witnessAdj[i] is, per attacker i, the adjacency of the "witness
	// graph": atoms H, H' are adjacent iff vars(H) ∩ vars(H') ⊄ Plus[i].
	witnessAdj [][][]int
	// reach[i][j] reports whether atom j is reachable from atom i in
	// attacker i's witness graph (including j == i).
	reach [][]bool
	kq    fd.Set
}

// BuildGraph computes the attack graph of q. The query must be
// self-join-free and well formed.
func BuildGraph(q query.Query) (*Graph, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !q.SelfJoinFree() {
		return nil, fmt.Errorf("attack: query %s has a self-join", q)
	}
	n := q.Len()
	g := &Graph{
		Q:          q,
		Plus:       make([]query.VarSet, n),
		Edge:       make([][]bool, n),
		WeakEdge:   make([][]bool, n),
		witnessAdj: make([][][]int, n),
		reach:      make([][]bool, n),
		kq:         fd.K(q),
	}
	vars := make([]query.VarSet, n)
	for i, a := range q.Atoms {
		vars[i] = a.Vars()
	}
	for i := range q.Atoms {
		g.Plus[i] = plusSet(q, i)
		// Witness graph for attacker i.
		adj := make([][]int, n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if sharesOutside(vars[a], vars[b], g.Plus[i]) {
					adj[a] = append(adj[a], b)
					adj[b] = append(adj[b], a)
				}
			}
		}
		g.witnessAdj[i] = adj
		// Reachability from i.
		seen := make([]bool, n)
		stack := []int{i}
		seen[i] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		g.reach[i] = seen
		g.Edge[i] = make([]bool, n)
		g.WeakEdge[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			if j != i && seen[j] {
				g.Edge[i][j] = true
				g.WeakEdge[i][j] = g.kq.Implies(q.Atoms[i].KeyVars(), q.Atoms[j].KeyVars())
			}
		}
	}
	return g, nil
}

// plusSet computes F^{+,q} for atom index i:
// {x in vars(q) | K((q \ {F}) ∪ [[q]]) |= key(F) -> x}.
func plusSet(q query.Query, i int) query.VarSet {
	var fds fd.Set
	for j, a := range q.Atoms {
		if j == i && a.Rel.Mode != schema.ModeC {
			continue // drop F itself unless it belongs to [[q]]
		}
		fds = append(fds, fd.FD{From: a.KeyVars(), To: a.Vars()})
	}
	return fds.Closure(q.Atoms[i].KeyVars())
}

// sharesOutside reports vars(a) ∩ vars(b) ⊄ plus: some shared variable
// lies outside plus.
func sharesOutside(a, b, plus query.VarSet) bool {
	small, large := a, b
	if len(large) < len(small) {
		small, large = large, small
	}
	for v := range small {
		if large.Has(v) && !plus.Has(v) {
			return true
		}
	}
	return false
}

// Attacks reports whether atom i attacks atom j.
func (g *Graph) Attacks(i, j int) bool { return g.Edge[i][j] }

// Weak reports whether the attack i -> j is weak; callers should check
// Attacks(i, j) first.
func (g *Graph) Weak(i, j int) bool { return g.WeakEdge[i][j] }

// AttacksVar reports whether atom i attacks the variable z
// (Definition 2). Unfolding the definition: adding a fresh simple-key
// atom R(z) leaves F^{+,q} unchanged, so F attacks R(z) iff z ∉ F^{+,q}
// and z occurs in some atom reachable from F in F's witness graph
// (including F itself).
func (g *Graph) AttacksVar(i int, z query.Var) bool {
	if g.Plus[i].Has(z) {
		return false
	}
	for j, a := range g.Q.Atoms {
		if g.reach[i][j] && a.Vars().Has(z) {
			return true
		}
	}
	return false
}

// Witness returns a witness for the attack i -> j: a sequence of atom
// indices F0, ..., Fn with F0 = i, Fn = j, and consecutive atoms sharing a
// variable outside Plus[i]. It returns nil when i does not attack j.
func (g *Graph) Witness(i, j int) []int {
	if i == j || !g.Edge[i][j] {
		return nil
	}
	// BFS in attacker i's witness graph.
	n := g.Q.Len()
	prev := make([]int, n)
	for k := range prev {
		prev[k] = -2
	}
	prev[i] = -1
	queue := []int{i}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == j {
			break
		}
		for _, v := range g.witnessAdj[i][u] {
			if prev[v] == -2 {
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	if prev[j] == -2 {
		return nil
	}
	var rev []int
	for u := j; u != -1; u = prev[u] {
		rev = append(rev, u)
	}
	out := make([]int, len(rev))
	for k := range rev {
		out[k] = rev[len(rev)-1-k]
	}
	return out
}

// WitnessVars returns, for a witness path, the connecting variables z1,
// ..., zn with zi ∈ vars(F(i-1)) ∩ vars(Fi) and zi ∉ Plus[attacker].
func (g *Graph) WitnessVars(attacker int, path []int) []query.Var {
	var out []query.Var
	for k := 1; k < len(path); k++ {
		shared := g.Q.Atoms[path[k-1]].Vars().Intersect(g.Q.Atoms[path[k]].Vars())
		var pick query.Var
		found := false
		for _, v := range shared.Sorted() {
			if !g.Plus[attacker].Has(v) {
				pick = v
				found = true
				break
			}
		}
		if !found {
			return nil
		}
		out = append(out, pick)
	}
	return out
}

// Unattacked returns the indices of atoms with indegree zero in the attack
// graph, in atom order.
func (g *Graph) Unattacked() []int {
	n := g.Q.Len()
	var out []int
	for j := 0; j < n; j++ {
		attacked := false
		for i := 0; i < n; i++ {
			if g.Edge[i][j] {
				attacked = true
				break
			}
		}
		if !attacked {
			out = append(out, j)
		}
	}
	return out
}

// HasCycle reports whether the attack graph contains a directed cycle.
// By Lemma 5(1) this holds iff it contains a cycle of size two; both the
// 2-cycle criterion and full SCC detection are equivalent here, and the
// implementation uses 2-cycles.
func (g *Graph) HasCycle() bool {
	n := g.Q.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g.Edge[i][j] && g.Edge[j][i] {
				return true
			}
		}
	}
	return false
}

// HasStrongCycle reports whether the attack graph contains a strong cycle
// (a cycle with at least one strong attack). By Lemma 5(2) this holds iff
// there is a strong cycle of size two.
func (g *Graph) HasStrongCycle() bool {
	n := g.Q.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g.Edge[i][j] && g.Edge[j][i] && (!g.WeakEdge[i][j] || !g.WeakEdge[j][i]) {
				return true
			}
		}
	}
	return false
}

func (g *Graph) toDgraph() *dgraph.Graph {
	n := g.Q.Len()
	dg := dgraph.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g.Edge[i][j] {
				dg.AddEdge(i, j)
			}
		}
	}
	return dg
}

// StrongComponents returns the component index of every atom and, per
// component, whether it is initial (no incoming edge from another
// component), per Definition 1.
func (g *Graph) StrongComponents() (comp []int, initial []bool) {
	return g.toDgraph().InitialComponents()
}

// InInitialStrongComponent reports whether atom i belongs to an initial
// strong component of the attack graph.
func (g *Graph) InInitialStrongComponent(i int) bool {
	comp, initial := g.StrongComponents()
	return initial[comp[i]]
}

// Classify returns the complexity class of CERTAINTY(q) per Theorem 1.
func (g *Graph) Classify() Class {
	if g.HasStrongCycle() {
		return CoNPComplete
	}
	if g.HasCycle() {
		return PTime
	}
	return FO
}

// Classify builds the attack graph of q and classifies CERTAINTY(q).
func Classify(q query.Query) (Class, *Graph, error) {
	g, err := BuildGraph(q)
	if err != nil {
		return FO, nil, err
	}
	return g.Classify(), g, nil
}

// String renders the attack graph as edge lines "R -> S (weak)".
func (g *Graph) String() string {
	var lines []string
	n := g.Q.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g.Edge[i][j] {
				kind := "strong"
				if g.WeakEdge[i][j] {
					kind = "weak"
				}
				lines = append(lines, fmt.Sprintf("%s -> %s (%s)",
					g.Q.Atoms[i].Rel.Name, g.Q.Atoms[j].Rel.Name, kind))
			}
		}
	}
	if len(lines) == 0 {
		return "(no attacks)"
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// DOT renders the attack graph in Graphviz DOT format; weak attacks are
// solid, strong attacks are bold red.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph attack {\n")
	for _, a := range g.Q.Atoms {
		fmt.Fprintf(&b, "  %q;\n", a.String())
	}
	n := g.Q.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g.Edge[i][j] {
				style := ""
				if !g.WeakEdge[i][j] {
					style = " [color=red, style=bold, label=\"strong\"]"
				}
				fmt.Fprintf(&b, "  %q -> %q%s;\n",
					g.Q.Atoms[i].String(), g.Q.Atoms[j].String(), style)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
