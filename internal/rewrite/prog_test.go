package rewrite

import (
	"testing"

	"cqa/internal/db"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// progFixture is a warm eliminator of R(x | y), S(y | z) over a
// database that also holds T, a relation the query does not read.
func progFixture(t *testing.T) (*Eliminator, *db.DB, *iprog) {
	t.Helper()
	el, err := CompileAcyclic(query.MustParse("R(x | y), S(y | z)"))
	if err != nil {
		t.Fatal(err)
	}
	d := factsDB(t, `
		R(a | b)
		R(a | c)
		S(b | t)
		T(k | v)
	`)
	if got, err := el.CertainChecked(match.NewIndex(d), nil, nil); err != nil || got {
		t.Fatalf("parent: %v, %v; want not certain (S has no c block)", got, err)
	}
	p := el.last.Load()
	if p == nil {
		t.Fatal("no program after a walk")
	}
	return el, d, p
}

func applyOne(t *testing.T, d *db.DB, f db.Fact) *db.DB {
	t.Helper()
	var delta db.Delta
	delta.Insert(f)
	child, err := d.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	return child
}

// TestApplyProgInheritance: an eliminator reuses its last program
// while the view at hand still has the same symbol table and the same
// ColRel at every level, and recompiles otherwise.
func TestApplyProgInheritance(t *testing.T) {
	// Apply aliases the ColRels of the relations a delta does not
	// touch, so after a write to T alone the parent's program is valid
	// on the child and the first walk there reuses it.
	t.Run("untouched relation keeps the program", func(t *testing.T) {
		el, d, p := progFixture(t)
		child := applyOne(t, d, db.NewFact(schema.NewRelation("T", 2, 1), "k2", "v"))
		if got, err := el.CertainChecked(match.NewIndex(child), nil, nil); err != nil || got {
			t.Fatalf("child: %v, %v; want not certain", got, err)
		}
		if el.last.Load() != p {
			t.Fatal("a write to a relation the query does not read recompiled the program")
		}
	})
	// A write to S respliced S's ColRel: the parent's program is stale
	// on the child, and the walk recompiles and sees the new fact.
	t.Run("touched relation recompiles", func(t *testing.T) {
		el, d, p := progFixture(t)
		child := applyOne(t, d, db.NewFact(schema.NewRelation("S", 2, 1), "c", "t"))
		if got, err := el.CertainChecked(match.NewIndex(child), nil, nil); err != nil || !got {
			t.Fatalf("child: %v, %v; want certain once S(c | t) is in", got, err)
		}
		if el.last.Load() == p {
			t.Fatal("a write to S kept the program compiled against the parent's S")
		}
		if got, err := el.CertainChecked(match.NewIndex(d), nil, nil); err != nil || got {
			t.Fatalf("parent after the child: %v, %v; want not certain", got, err)
		}
	})
	// Two unrelated databases — separate symbol tables, separate
	// ColRels, the query's constant interned at different IDs — each
	// get their own answer from one eliminator alternating between them.
	t.Run("alternating databases", func(t *testing.T) {
		el, err := CompileAcyclic(query.MustParse("R(x | y), S(y | 'c')"))
		if err != nil {
			t.Fatal(err)
		}
		yes := match.NewIndex(factsDB(t, `
			R(a | b)
			S(b | c)
		`))
		no := match.NewIndex(factsDB(t, `
			S(b | c)
			S(e | c)
			R(a | b)
			R(a | e)
			R(d | e)
			S(e | f)
		`))
		for i := 0; i < 6; i++ {
			ix, want := yes, true
			if i%2 == 1 {
				ix, want = no, false
			}
			if got, err := el.CertainChecked(ix, nil, nil); err != nil || got != want {
				t.Fatalf("run %d: %v, %v; want %v", i, got, err, want)
			}
		}
	})
}
