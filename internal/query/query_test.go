package query

import (
	"strings"
	"testing"
	"testing/quick"

	"cqa/internal/schema"
)

func TestParseBasics(t *testing.T) {
	q := MustParse("R(x | y), S(y | z)")
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	r, ok := q.AtomWithRel("R")
	if !ok || r.Rel.Arity != 2 || r.Rel.KeyLen != 1 {
		t.Fatalf("R atom wrong: %v %v", r, ok)
	}
	if !q.SelfJoinFree() {
		t.Error("expected self-join-free")
	}
}

func TestParseCompositeKeyAndModes(t *testing.T) {
	q := MustParse("V(x, u | v), T#c(a, b | c, d)")
	v, _ := q.AtomWithRel("V")
	if v.Rel.KeyLen != 2 || v.Rel.Arity != 3 {
		t.Errorf("V signature [%d,%d]", v.Rel.Arity, v.Rel.KeyLen)
	}
	tt, _ := q.AtomWithRel("T")
	if tt.Rel.Mode != schema.ModeC || tt.Rel.KeyLen != 2 || tt.Rel.Arity != 4 {
		t.Errorf("T wrong: %v", tt.Rel)
	}
}

func TestParseConstants(t *testing.T) {
	q := MustParse("R('melbourne' | y, 42)")
	a := q.Atoms[0]
	if !a.Args[0].IsConst() || a.Args[0].Const() != "melbourne" {
		t.Errorf("arg0 = %v", a.Args[0])
	}
	if !a.Args[2].IsConst() || a.Args[2].Const() != "42" {
		t.Errorf("arg2 = %v", a.Args[2])
	}
	if a.Args[1].IsConst() {
		t.Errorf("arg1 should be a variable")
	}
}

func TestParseDefaultSimpleKey(t *testing.T) {
	q := MustParse("R(x, y, z)")
	if q.Atoms[0].Rel.KeyLen != 1 {
		t.Errorf("default key length = %d, want 1", q.Atoms[0].Rel.KeyLen)
	}
}

func TestParseWholeTupleKey(t *testing.T) {
	q := MustParse("S(y, z |)")
	if q.Atoms[0].Rel.KeyLen != 2 || q.Atoms[0].Rel.Arity != 2 {
		t.Errorf("signature [%d,%d], want [2,2]", q.Atoms[0].Rel.Arity, q.Atoms[0].Rel.KeyLen)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"R(x | y), R(y | z)", // self-join
		"R(",
		"R()",
		"R(| x)",
		"R(x | y) S(y | z)", // missing comma
		"R(x # y)",
		"R#q(x | y)", // unknown mode
		"R(x | 'unterminated)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"R(x | y), S(y | z)",
		"V(x, u | v)",
		"T#c(x | z)",
		"R('a' | y, z)",
		"S(y, z |)",
	} {
		q := MustParse(s)
		q2 := MustParse(q.String())
		if !q.Equal(q2) {
			t.Errorf("round trip failed: %q -> %q", s, q.String())
		}
	}
}

func TestSubstitute(t *testing.T) {
	q := MustParse("R(x | y), S(y | z)")
	q2 := q.Substitute(Valuation{"y": "b"})
	want := MustParse("R(x | 'b'), S('b' | z)")
	if !q2.Equal(want) {
		t.Errorf("got %s, want %s", q2, want)
	}
	if !q.Vars().Has("y") {
		t.Error("substitute must not mutate the receiver")
	}
}

func TestRenameVars(t *testing.T) {
	q := MustParse("R(x | y)")
	q2 := q.RenameVars(map[Var]Var{"y": "w"})
	if !q2.Vars().Has("w") || q2.Vars().Has("y") {
		t.Errorf("rename failed: %s", q2)
	}
}

func TestRemoveAndAdd(t *testing.T) {
	q := MustParse("R(x | y), S(y | z)")
	r, _ := q.AtomWithRel("R")
	q2 := q.Remove(r)
	if q2.Len() != 1 || q2.HasRel("R") {
		t.Errorf("remove failed: %s", q2)
	}
	q3 := q2.Add(r)
	if !q3.Equal(q) {
		t.Errorf("add failed: %s", q3)
	}
	// Adding a duplicate is a no-op.
	if q3.Add(r).Len() != 2 {
		t.Error("duplicate atom added")
	}
}

func TestConsistentPartAndIncnt(t *testing.T) {
	q := MustParse("R(x | y), T#c(y | z), U(z | x)")
	if got := q.ConsistentPart().Len(); got != 1 {
		t.Errorf("[[q]] has %d atoms, want 1", got)
	}
	if got := q.InconsistencyCount(); got != 2 {
		t.Errorf("incnt = %d, want 2", got)
	}
}

func TestFreshVar(t *testing.T) {
	q := MustParse("R(u | u0)")
	v := q.FreshVar("u")
	if v == "u" || v == "u0" || q.Vars().Has(v) {
		t.Errorf("FreshVar returned %s", v)
	}
}

func TestCanonicalOrderIndependent(t *testing.T) {
	a := MustParse("R(x | y), S(y | z)")
	b := MustParse("S(y | z), R(x | y)")
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical differs: %q vs %q", a.Canonical(), b.Canonical())
	}
}

func TestVarSetOps(t *testing.T) {
	s := NewVarSet("x", "y")
	u := NewVarSet("y", "z")
	if !s.Intersects(u) || s.Intersect(u).Len() != 1 {
		t.Error("intersect wrong")
	}
	if got := s.Minus(u); !got.Equal(NewVarSet("x")) {
		t.Errorf("minus = %s", got)
	}
	if s.SubsetOf(u) || !NewVarSet("y").SubsetOf(s) {
		t.Error("subset wrong")
	}
	if s.String() != "{x, y}" {
		t.Errorf("String = %s", s.String())
	}
}

func TestValuationOps(t *testing.T) {
	v := Valuation{"y": "b", "x": "a"}
	c := v.Clone()
	c["x"] = "z"
	if v["x"] != "a" || len(c) != 2 {
		t.Errorf("clone shares its map: v = %v, clone = %v", v, c)
	}
	if k := v.Key(); k != "x=a,y=b" {
		t.Errorf("Key = %q, want x=a,y=b", k)
	}
	if got, ok := v.Apply(V("y")); !ok || got != "b" {
		t.Errorf("Apply(y) = %q, %v", got, ok)
	}
	if _, ok := v.Apply(V("w")); ok {
		t.Error("Apply resolved an unbound variable")
	}
}

// Property: substitution never introduces new variables and removes
// exactly the bound ones that occur.
func TestSubstituteVarsProperty(t *testing.T) {
	f := func(bindY, bindZ bool) bool {
		q := MustParse("R(x | y), S(y | z)")
		val := Valuation{}
		if bindY {
			val["y"] = "c1"
		}
		if bindZ {
			val["z"] = "c2"
		}
		got := q.Substitute(val).Vars()
		want := q.Vars()
		for v := range val {
			want = want.Minus(NewVarSet(v))
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Term String round-trips through the parser's term grammar.
func TestTermStringShape(t *testing.T) {
	if V("x").String() != "x" {
		t.Error("var string")
	}
	if C("a").String() != "'a'" {
		t.Error("const string")
	}
	if !strings.Contains(MustParse("R(x | 'a')").String(), "'a'") {
		t.Error("constant not quoted in query string")
	}
}

func TestAtomAccessors(t *testing.T) {
	q := MustParse("V(x, u | v, x)")
	a := q.Atoms[0]
	if !a.KeyVars().Equal(NewVarSet("x", "u")) {
		t.Errorf("key vars %s", a.KeyVars())
	}
	if !a.NonKeyVars().Equal(NewVarSet("v", "x")) {
		t.Errorf("nonkey vars %s", a.NonKeyVars())
	}
	if !a.HasRepeatedVars() {
		t.Error("x repeats")
	}
	if a.Ground() {
		t.Error("not ground")
	}
	g := a.Substitute(Valuation{"x": "1", "u": "2", "v": "3"})
	if !g.Ground() {
		t.Errorf("should be ground: %s", g)
	}
}

func TestParseAtomListAllowsSelfJoins(t *testing.T) {
	q, err := ParseAtomList("R(x | y), R(y | z)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 2 || q.SelfJoinFree() {
		t.Errorf("expected a self-join pair, got %s", q)
	}
	if _, err := ParseAtomList("R(x"); err == nil {
		t.Error("syntax error should propagate")
	}
	if _, err := ParseAtomList("R(x | y), R(x | y, z)"); err == nil {
		t.Error("conflicting signatures should be rejected by Validate")
	}
}

func TestFormatVars(t *testing.T) {
	if got := FormatVars([]Var{"x", "y"}); got != "x, y" {
		t.Errorf("FormatVars = %q", got)
	}
	if got := FormatVars(nil); got != "" {
		t.Errorf("FormatVars(nil) = %q", got)
	}
}

func TestEmptyQueryRoundTrip(t *testing.T) {
	q := MustParse("")
	if q.String() != "{}" {
		t.Errorf("empty query String = %q", q.String())
	}
	q2 := MustParse(q.String())
	if !q2.Empty() {
		t.Error("{} should parse to the empty query")
	}
}

func TestTermPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Var() on constant should panic")
			}
		}()
		C("a").Var()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Const() on variable should panic")
			}
		}()
		V("x").Const()
	}()
}

func TestNewAtomArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected arity panic")
		}
	}()
	NewAtom(schema.NewRelation("R", 2, 1), V("x"))
}
