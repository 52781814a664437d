// Package query implements terms, atoms, valuations, and self-join-free
// Boolean conjunctive queries in the sense of Koutris and Wijsen (PODS
// 2015), together with a small textual syntax for writing queries down.
package query

import (
	"sort"
	"strings"
)

// Var is a variable name.
type Var string

// Const is a constant. Constants and variables are kept in disjoint
// syntactic spaces by the Term type, not by their string value.
type Const string

// Term is either a variable or a constant. The zero value is the variable
// with empty name, which is never produced by the constructors; treat the
// zero Term as invalid.
type Term struct {
	val     string
	isConst bool
}

// V returns a variable term.
func V(name Var) Term { return Term{val: string(name)} }

// C returns a constant term.
func C(c Const) Term { return Term{val: string(c), isConst: true} }

// IsConst reports whether the term is a constant.
func (t Term) IsConst() bool { return t.isConst }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return !t.isConst }

// Var returns the term as a variable; it panics on constants.
func (t Term) Var() Var {
	if t.isConst {
		panic("query: Var() called on constant term " + t.val)
	}
	return Var(t.val)
}

// Const returns the term as a constant; it panics on variables.
func (t Term) Const() Const {
	if !t.isConst {
		panic("query: Const() called on variable term " + t.val)
	}
	return Const(t.val)
}

// String renders variables bare and constants single-quoted.
func (t Term) String() string {
	if t.isConst {
		return "'" + t.val + "'"
	}
	return t.val
}

// VarSet is a set of variables.
type VarSet map[Var]struct{}

// NewVarSet returns a set containing the given variables.
func NewVarSet(vs ...Var) VarSet {
	s := make(VarSet, len(vs))
	for _, v := range vs {
		s[v] = struct{}{}
	}
	return s
}

// Len returns the number of variables in the set.
func (s VarSet) Len() int { return len(s) }

// Has reports membership.
func (s VarSet) Has(v Var) bool {
	_, ok := s[v]
	return ok
}

// Add inserts v.
func (s VarSet) Add(v Var) { s[v] = struct{}{} }

// AddAll inserts every element of t and returns s.
func (s VarSet) AddAll(t VarSet) VarSet {
	for v := range t {
		s[v] = struct{}{}
	}
	return s
}

// Clone returns an independent copy.
func (s VarSet) Clone() VarSet {
	c := make(VarSet, len(s))
	for v := range s {
		c[v] = struct{}{}
	}
	return c
}

// SubsetOf reports whether every element of s is in t.
func (s VarSet) SubsetOf(t VarSet) bool {
	for v := range s {
		if !t.Has(v) {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share an element.
func (s VarSet) Intersects(t VarSet) bool {
	small, large := s, t
	if len(large) < len(small) {
		small, large = large, small
	}
	for v := range small {
		if large.Has(v) {
			return true
		}
	}
	return false
}

// Intersect returns the intersection of s and t as a new set.
func (s VarSet) Intersect(t VarSet) VarSet {
	out := make(VarSet)
	for v := range s {
		if t.Has(v) {
			out.Add(v)
		}
	}
	return out
}

// Minus returns s \ t as a new set.
func (s VarSet) Minus(t VarSet) VarSet {
	out := make(VarSet)
	for v := range s {
		if !t.Has(v) {
			out.Add(v)
		}
	}
	return out
}

// Equal reports whether s and t contain exactly the same variables.
func (s VarSet) Equal(t VarSet) bool {
	return len(s) == len(t) && s.SubsetOf(t)
}

// Sorted returns the variables in lexicographic order.
func (s VarSet) Sorted() []Var {
	out := make([]Var, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as {x, y, z} in sorted order.
func (s VarSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range s.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(v))
	}
	b.WriteByte('}')
	return b.String()
}

// Valuation is a total mapping from some set of variables to constants.
// Per the paper's convention, a valuation is implicitly the identity on
// constants and undefined variables are simply absent from the map.
type Valuation map[Var]Const

// Clone returns an independent copy.
func (v Valuation) Clone() Valuation {
	c := make(Valuation, len(v))
	for k, x := range v {
		c[k] = x
	}
	return c
}

// Placeholders binds each variable of s to a constant of its own,
// built from the variable's name. Substituting them treats the
// variables as instantiated without choosing values: constants never
// enter the key closures an attack graph is built from, so
// q.Substitute(Placeholders(s)) has the attack graph, and the class, of
// every instantiation of s in q.
func Placeholders(s VarSet) Valuation {
	v := make(Valuation, len(s))
	for x := range s {
		v[x] = Const("\x01" + string(x))
	}
	return v
}

// Apply maps a term through the valuation: constants map to themselves,
// variables to their image. The boolean result reports whether the term
// was resolved to a constant (false when the variable is unbound).
func (v Valuation) Apply(t Term) (Const, bool) {
	if t.IsConst() {
		return t.Const(), true
	}
	c, ok := v[t.Var()]
	return c, ok
}

// Key returns a canonical string for the valuation, useful for
// deduplication and memoization.
func (v Valuation) Key() string {
	vars := make([]string, 0, len(v))
	for k := range v {
		vars = append(vars, string(k))
	}
	sort.Strings(vars)
	var b strings.Builder
	for i, k := range vars {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(string(v[Var(k)]))
	}
	return b.String()
}

// String renders the valuation as {x -> a, y -> b} in sorted variable order.
func (v Valuation) String() string {
	vars := make([]string, 0, len(v))
	for k := range v {
		vars = append(vars, string(k))
	}
	sort.Strings(vars)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range vars {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		b.WriteString(" -> ")
		b.WriteString(string(v[Var(k)]))
	}
	b.WriteByte('}')
	return b.String()
}
