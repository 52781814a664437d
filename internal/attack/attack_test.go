package attack

import (
	"math/rand"
	"testing"

	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/workload"
)

func mustGraph(t *testing.T, s string) *Graph {
	t.Helper()
	g, err := BuildGraph(query.MustParse(s))
	if err != nil {
		t.Fatalf("BuildGraph(%q): %v", s, err)
	}
	return g
}

func atomIndex(t *testing.T, g *Graph, rel string) int {
	t.Helper()
	for i, a := range g.Q.Atoms {
		if a.Rel.Name == rel {
			return i
		}
	}
	t.Fatalf("no atom %s in %s", rel, g.Q)
	return -1
}

// edgeSet extracts the attack edges as "R->S" strings.
func edgeSet(g *Graph) map[string]bool {
	out := make(map[string]bool)
	for i := range g.Q.Atoms {
		for j := range g.Q.Atoms {
			if g.Edge[i][j] {
				out[g.Q.Atoms[i].Rel.Name+"->"+g.Q.Atoms[j].Rel.Name] = true
			}
		}
	}
	return out
}

func wantEdges(t *testing.T, g *Graph, want []string) {
	t.Helper()
	got := edgeSet(g)
	for _, e := range want {
		if !got[e] {
			t.Errorf("missing attack %s\ngraph:\n%s", e, g)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d attacks, want %d\ngraph:\n%s", len(got), len(want), g)
	}
}

// TestFigure1 checks the attack graph of Example 2 / Figure 1:
// q = {R(x|y), S(y|z), T(z|x), U(x|u), V(x,u|v)}.
func TestFigure1(t *testing.T) {
	g := mustGraph(t, "R(x|y), S(y|z), T(z|x), U(x|u), V(x,u|v)")

	// R^{+,q} = {x, u, v} as computed in Example 2.
	r := atomIndex(t, g, "R")
	if got, want := g.Plus[r], query.NewVarSet("x", "u", "v"); !got.Equal(want) {
		t.Errorf("R^{+,q} = %s, want %s", got, want)
	}

	wantEdges(t, g, []string{
		"R->S", "R->T",
		"S->R", "S->T", "S->U", "S->V",
		"T->R", "T->S", "T->U", "T->V",
		"U->V",
	})

	// "All attacks are weak."
	for i := range g.Q.Atoms {
		for j := range g.Q.Atoms {
			if g.Edge[i][j] && !g.WeakEdge[i][j] {
				t.Errorf("attack %s -> %s should be weak",
					g.Q.Atoms[i].Rel.Name, g.Q.Atoms[j].Rel.Name)
			}
		}
	}

	// Witness for R ~> T passes through S (R -y- S -z- T).
	w := g.Witness(r, atomIndex(t, g, "T"))
	if len(w) != 3 || g.Q.Atoms[w[1]].Rel.Name != "S" {
		t.Errorf("witness for R ~> T = %v, want R, S, T", w)
	}
	vars := g.WitnessVars(r, w)
	if len(vars) != 2 || vars[0] != "y" || vars[1] != "z" {
		t.Errorf("witness vars = %v, want [y z]", vars)
	}

	if got := g.Classify(); got != PTime {
		t.Errorf("Classify = %v, want P\\FO (cyclic, all weak)", got)
	}

	// Example 3: R, S, T form an initial strong component.
	comp, initial := g.StrongComponents()
	s, tt := atomIndex(t, g, "S"), atomIndex(t, g, "T")
	if comp[r] != comp[s] || comp[s] != comp[tt] {
		t.Errorf("R, S, T should share a strong component: %v", comp)
	}
	if !initial[comp[r]] {
		t.Errorf("component of R, S, T should be initial")
	}
	u, v := atomIndex(t, g, "U"), atomIndex(t, g, "V")
	if comp[u] == comp[r] || comp[v] == comp[r] || comp[u] == comp[v] {
		t.Errorf("U and V should be singleton components: %v", comp)
	}
}

// TestFigure2 checks the attack graph of Example 7 / Figure 2 (left):
// q = {R(x|y,v), S(y|x), V1#c(v|w), W(w|v), V2#c(w|y)}.
func TestFigure2(t *testing.T) {
	g := mustGraph(t, "R(x | y, v), S(y | x), V1#c(v | w), W(w | v), V2#c(w | y)")
	wantEdges(t, g, []string{
		"R->S", "S->R",
		"R->V1", "R->W", "R->V2",
		"S->V1", "S->W", "S->V2",
	})
	if got := g.Classify(); got != PTime {
		t.Errorf("Classify = %v, want P\\FO", got)
	}
	// R and S form an initial strong component.
	comp, initial := g.StrongComponents()
	r, s := atomIndex(t, g, "R"), atomIndex(t, g, "S")
	if comp[r] != comp[s] || !initial[comp[r]] {
		t.Errorf("R, S should form an initial strong component")
	}
}

// TestExample4 checks attacks on variables: for q = {R(x|y)} the attack
// graph has no edge, yet R attacks y; and every witness variable is
// attacked by the witness's start atom.
func TestExample4(t *testing.T) {
	g := mustGraph(t, "R(x | y)")
	if g.HasCycle() {
		t.Fatal("single-atom query cannot have attack cycles")
	}
	r := 0
	if !g.AttacksVar(r, "y") {
		t.Errorf("R should attack y")
	}
	if g.AttacksVar(r, "x") {
		t.Errorf("R should not attack x (x is in key(R) ⊆ R^{+,q})")
	}

	// Figure 1 query: R attacks the witness variables y and z on the
	// witness R -y- S -z- T.
	g2 := mustGraph(t, "R(x|y), S(y|z), T(z|x), U(x|u), V(x,u|v)")
	r2 := atomIndex(t, g2, "R")
	for _, z := range []query.Var{"y", "z"} {
		if !g2.AttacksVar(r2, z) {
			t.Errorf("R should attack witness variable %s", z)
		}
	}
	for _, z := range []query.Var{"x", "u", "v"} {
		if g2.AttacksVar(r2, z) {
			t.Errorf("R should not attack %s ∈ R^{+,q}", z)
		}
	}
}

// TestAttacksVarLiteralDefinition cross-checks the direct AttacksVar
// computation against the literal Definition 2: F attacks z iff F attacks
// the fresh atom N(z) in q ∪ {N(z)}.
func TestAttacksVarLiteralDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(4)
		q := workload.RandomQuery(rng, p)
		g, err := BuildGraph(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, z := range q.Vars().Sorted() {
			fresh := schema.Relation{Name: "ZZfresh", Arity: 1, KeyLen: 1, Mode: schema.ModeI}
			q2 := q.Add(query.NewAtom(fresh, query.V(z)))
			g2, err := BuildGraph(q2)
			if err != nil {
				t.Fatal(err)
			}
			zIdx := -1
			for i, a := range g2.Q.Atoms {
				if a.Rel.Name == "ZZfresh" {
					zIdx = i
				}
			}
			for i, a := range q.Atoms {
				i2 := -1
				for k, b := range g2.Q.Atoms {
					if b.Rel.Name == a.Rel.Name {
						i2 = k
					}
				}
				got := g.AttacksVar(i, z)
				want := g2.Edge[i2][zIdx]
				if got != want {
					t.Fatalf("q=%s: AttacksVar(%s, %s)=%v, literal Definition 2 gives %v",
						q, a.Rel.Name, z, got, want)
				}
			}
		}
	}
}

// TestLemma4Fork checks Lemma 4 on random queries: if F ~> G and G ~> H
// (F, G, H pairwise distinct is not required beyond F≠G, G≠H per the
// attack relation), then F ~> H or G ~> F.
func TestLemma4Fork(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 2 + rng.Intn(4)
		q := workload.RandomQuery(rng, p)
		g, err := BuildGraph(q)
		if err != nil {
			t.Fatal(err)
		}
		n := q.Len()
		for f := 0; f < n; f++ {
			for gg := 0; gg < n; gg++ {
				if !g.Edge[f][gg] {
					continue
				}
				for h := 0; h < n; h++ {
					if !g.Edge[gg][h] || h == f {
						continue
					}
					if !g.Edge[f][h] && !g.Edge[gg][f] {
						t.Fatalf("Lemma 4 violated on %s: %s~>%s, %s~>%s but neither %s~>%s nor %s~>%s",
							q, q.Atoms[f].Rel.Name, q.Atoms[gg].Rel.Name,
							q.Atoms[gg].Rel.Name, q.Atoms[h].Rel.Name,
							q.Atoms[f].Rel.Name, q.Atoms[h].Rel.Name,
							q.Atoms[gg].Rel.Name, q.Atoms[f].Rel.Name)
					}
				}
			}
		}
	}
}

// TestLemma5CycleCriteria checks on random queries that the 2-cycle
// criteria agree with full SCC-based cycle detection (Lemma 5).
func TestLemma5CycleCriteria(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 800; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(5)
		q := workload.RandomQuery(rng, p)
		g, err := BuildGraph(q)
		if err != nil {
			t.Fatal(err)
		}
		if g.HasCycle() != hasCycleSCC(g) {
			t.Fatalf("Lemma 5(1) violated on %s", q)
		}
		if g.HasStrongCycle() != hasStrongCycleSCC(g) {
			t.Fatalf("Lemma 5(2) violated on %s", q)
		}
	}
}

// hasCycleSCC decides cyclicity via strongly connected components: the
// oracle TestLemma5CycleCriteria checks Lemma 5(1) against.
func hasCycleSCC(g *Graph) bool {
	return g.toDgraph().HasCycle()
}

// hasStrongCycleSCC decides strong-cycle existence via SCCs: a strong
// attack whose endpoints lie in one strongly connected component closes
// to a strong cycle. The oracle for Lemma 5(2).
func hasStrongCycleSCC(g *Graph) bool {
	comp, _ := g.toDgraph().SCC()
	n := g.Q.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && g.Edge[i][j] && !g.WeakEdge[i][j] && comp[i] == comp[j] {
				return true
			}
		}
	}
	return false
}

// TestLemma6Instantiation checks that substituting a constant for a
// variable preserves acyclicity and strong-cycle-freeness of the attack
// graph (Lemma 6).
func TestLemma6Instantiation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(4)
		q := workload.RandomQuery(rng, p)
		g, err := BuildGraph(q)
		if err != nil {
			t.Fatal(err)
		}
		vars := q.Vars().Sorted()
		if len(vars) == 0 {
			continue
		}
		x := vars[rng.Intn(len(vars))]
		q2 := q.Substitute(query.Valuation{x: "someconst"})
		g2, err := BuildGraph(q2)
		if err != nil {
			t.Fatal(err)
		}
		if !g.HasCycle() && g2.HasCycle() {
			t.Fatalf("Lemma 6(1) violated: %s acyclic but %s cyclic", q, q2)
		}
		if !g.HasStrongCycle() && g2.HasStrongCycle() {
			t.Fatalf("Lemma 6(2) violated: %s strong-cycle-free but %s has strong cycle", q, q2)
		}
	}
}

// TestClassifyKnownQueries pins down the trichotomy on canonical queries.
func TestClassifyKnownQueries(t *testing.T) {
	cases := []struct {
		q    string
		want Class
	}{
		{"R(x | y)", FO},
		{"R(x | y), S(y | z)", FO},
		{"R(x | y), S(y | 'b')", FO},                                         // Example 5
		{"R0(x | y), S0(y | x)", PTime},                                      // q0, Lemma 7
		{"R(x | y), S(u | y)", CoNPComplete},                                 // non-key join
		{"R(x | y), S(y | z), T(z | x), U(x | u), V(x, u | v)", PTime},       // Figure 1
		{"R(x | y, v), S(y | x), V1#c(v | w), W(w | v), V2#c(w | y)", PTime}, // Figure 2
		{"R(x, y | z), S(y, z | x)", PTime},                                  // composite-key weak cycle? see below
		{"R(x | x)", FO},
		{"R(x | y), S(y | x), T(u | y)", CoNPComplete}, // T joins on non-key
	}
	for _, c := range cases {
		got, _, err := Classify(query.MustParse(c.q))
		if err != nil {
			t.Fatalf("Classify(%q): %v", c.q, err)
		}
		if got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestModeCNeverAttacks: mode-c atoms contain their own key FD in the
// closure basis, so vars(F) ⊆ F^{+,q} and F cannot start a witness.
func TestModeCNeverAttacks(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(5)
		p.PModeC = 0.5
		q := workload.RandomQuery(rng, p)
		g, err := BuildGraph(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range q.Atoms {
			if a.Rel.Mode != schema.ModeC {
				continue
			}
			for j := range q.Atoms {
				if g.Edge[i][j] {
					t.Fatalf("mode-c atom %s attacks %s in %s",
						a.Rel.Name, q.Atoms[j].Rel.Name, q)
				}
			}
		}
	}
}

// TestUnattacked: in an acyclic attack graph some atom is unattacked.
func TestUnattacked(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		p := workload.DefaultQueryParams()
		p.Atoms = 1 + rng.Intn(5)
		q := workload.RandomQuery(rng, p)
		g, err := BuildGraph(q)
		if err != nil {
			t.Fatal(err)
		}
		if !g.HasCycle() && q.Len() > 0 && len(g.Unattacked()) == 0 {
			t.Fatalf("acyclic attack graph with no unattacked atom: %s", q)
		}
	}
}

func TestWeakStrongOnNonKeyJoin(t *testing.T) {
	g := mustGraph(t, "R(x | y), S(u | y)")
	r, s := atomIndex(t, g, "R"), atomIndex(t, g, "S")
	if !g.Edge[r][s] || !g.Edge[s][r] {
		t.Fatalf("R and S should attack each other:\n%s", g)
	}
	if g.WeakEdge[r][s] || g.WeakEdge[s][r] {
		t.Errorf("attacks should be strong (keys do not determine each other)")
	}
	if got := g.Classify(); got != CoNPComplete {
		t.Errorf("Classify = %v, want coNP-complete", got)
	}
}

func TestDOTAndString(t *testing.T) {
	g := mustGraph(t, "R(x | y), S(u | y)")
	if dot := g.DOT(); len(dot) == 0 || dot[0] != 'd' {
		t.Errorf("DOT output looks wrong: %q", dot)
	}
	if s := g.String(); s == "(no attacks)" {
		t.Errorf("expected attacks in String output")
	}
	empty, err := BuildGraph(query.MustParse(""))
	if err != nil {
		t.Fatal(err)
	}
	if s := empty.String(); s != "(no attacks)" {
		t.Errorf("empty graph String = %q", s)
	}
}
