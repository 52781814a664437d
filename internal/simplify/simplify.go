// Package simplify implements the syntactic simplifications of Lemma 12
// and the saturation of Lemma 11 (Koutris & Wijsen, PODS 2015), as joint
// query/database transformations that preserve the certain answer:
//
//  1. pattern elimination: repeated variables inside an atom and
//     constants outside simple-key key positions are projected away
//     (sound after purification, when every fact matches its pattern);
//  2. key packing: composite-key mode-i atoms become simple-key via an
//     injective tuple coding plus consistent Enc/Dec companion relations
//     that preserve the functional-dependency structure in both
//     directions;
//  3. saturation: Lemma 11's T^c(x, z) atoms are added until the query is
//     saturated (Definition 3).
//
// Lemma 12 also makes the database typed relative to q, every variable
// owning its own pool of constants. No step here copies the data to do
// so: the readers of types, gblock grouping in match.GPurify and the
// layers of G(db) in package dissolve, take a constant's variable from
// the query's term at its position.
//
// Each Lemma 12 step is a Step: the rewritten query plus a database
// transformer. A Lemma 11 step is a Saturation, whose database side
// reads the embeddings of q off the gpurified repair-constraint form
// (match.GPurify) instead of joining q again. The pipeline validates
// its own applicability conditions and reports an error rather than
// producing an unsound reduction.
package simplify

import (
	"fmt"
	"strings"

	"cqa/internal/attack"
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/fd"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// Step is one query transformation together with the matching database
// transformation. TransformDB must be applied to any database that the
// original query would have been evaluated on (after the preceding steps'
// transformations). A transformation polls the checker once per fact
// it copies, and returns the checker's error once it trips; a nil
// checker enforces nothing.
type Step struct {
	Name        string
	Q           query.Query
	TransformDB func(d *db.DB, chk *evalctx.Checker) (*db.DB, error)
}

// ElimPatterns removes repeated variables inside atoms and constants
// outside the key position of simple-key atoms, by projecting the
// offending positions away. Sound only on purified databases, where every
// fact matches its atom's pattern: the projection is then a bijection on
// facts that preserves blocks.
func ElimPatterns(q query.Query) (Step, bool) {
	type drop struct {
		rel      string
		keep     []int // positions kept, in order
		newRel   schema.Relation
		newArgs  []query.Term
		original schema.Relation
	}
	var drops []drop
	newAtoms := make([]query.Atom, 0, q.Len())
	changed := false
	for _, a := range q.Atoms {
		keep := keptPositions(a)
		if len(keep) == len(a.Args) {
			newAtoms = append(newAtoms, a)
			continue
		}
		changed = true
		newKeyLen := 0
		var newArgs []query.Term
		for _, p := range keep {
			if p < a.Rel.KeyLen {
				newKeyLen++
			}
			newArgs = append(newArgs, a.Args[p])
		}
		if newKeyLen == 0 {
			// The whole key was constants; keep the first key position so
			// the signature stays valid (a constant key of a simple-key
			// atom is allowed by Lemma 12).
			keep = append([]int{0}, keep...)
			newArgs = append([]query.Term{a.Args[0]}, newArgs...)
			newKeyLen = 1
		}
		rel := schema.Relation{
			Name:   a.Rel.Name + "_p",
			Arity:  len(keep),
			KeyLen: newKeyLen,
			Mode:   a.Rel.Mode,
		}
		drops = append(drops, drop{rel: a.Rel.Name, keep: keep, newRel: rel, original: a.Rel})
		newAtoms = append(newAtoms, query.Atom{Rel: rel, Args: newArgs})
	}
	if !changed {
		return Step{}, false
	}
	q2 := query.NewQuery(newAtoms...)
	byRel := make(map[string]drop)
	for _, dr := range drops {
		byRel[dr.rel] = dr
	}
	step := Step{
		Name: "elim-patterns",
		Q:    q2,
		TransformDB: func(d *db.DB, chk *evalctx.Checker) (*db.DB, error) {
			out := db.New()
			for _, f := range d.Facts() {
				if err := chk.Step(); err != nil {
					return nil, err
				}
				if dr, ok := byRel[f.Rel.Name]; ok {
					args := make([]query.Const, len(dr.keep))
					for i, p := range dr.keep {
						args[i] = f.Args[p]
					}
					f = db.Fact{Rel: dr.newRel, Args: args}
				}
				// The projected relation's name is not fresh: one the
				// query already uses under another signature is an error.
				if _, err := out.Insert(f); err != nil {
					return nil, err
				}
			}
			return out, nil
		},
	}
	return step, true
}

// keptPositions returns the argument positions to keep for an atom: the
// first occurrence of each variable, and constants only when they sit at
// the key position of a simple-key atom (position 0 with KeyLen 1) —
// every other constant position is redundant after purification.
func keptPositions(a query.Atom) []int {
	var keep []int
	seen := make(query.VarSet)
	for p, t := range a.Args {
		if t.IsVar() {
			if seen.Has(t.Var()) {
				continue
			}
			seen.Add(t.Var())
			keep = append(keep, p)
			continue
		}
		if p == 0 && a.Rel.KeyLen == 1 {
			keep = append(keep, p)
		}
	}
	return keep
}

// packConst is the injective tuple coding used by key packing. The
// relation name is part of the coding so that two relations with the same
// key tuple produce distinct constants — the fresh variables u of
// different packed atoms must have disjoint types.
func packConst(rel string, vals []query.Const) query.Const {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strings.ReplaceAll(string(v), "~", "~~")
	}
	return query.Const("<" + rel + ":" + strings.Join(parts, "~,") + ">")
}

// PackCompositeKeys replaces every composite-key mode-i atom
// R(x1, ..., xk | ȳ) (all-variable, repeat-free key) with the simple-key
// atom R'(u | x̄, ȳ) plus consistent companions Enc^c(x̄ | u) and
// Dec^c(u | x̄), where u is fresh. On the database side, R(ā, b̄) maps to
// R'(⟨ā⟩ | ā, b̄) with Enc(ā | ⟨ā⟩) and Dec(⟨ā⟩ | ā); the coding ⟨·⟩ is
// injective, so Enc and Dec are genuinely consistent and the FDs
// x̄ -> u and u -> x̄ hold, preserving the attack structure (mode-c atoms
// never attack).
func PackCompositeKeys(q query.Query) (Step, bool, error) {
	type pack struct {
		newRel, encRel, decRel schema.Relation
		k                      int
	}
	packs := make(map[string]pack)
	newAtoms := make([]query.Atom, 0, q.Len())
	used := q.Vars()
	changed := false
	for _, a := range q.Atoms {
		if a.Rel.Mode == schema.ModeC || a.Rel.SimpleKey() {
			newAtoms = append(newAtoms, a)
			continue
		}
		for _, t := range a.KeyArgs() {
			if t.IsConst() {
				return Step{}, false, fmt.Errorf("pack: atom %s has a constant in a composite key; run ElimPatterns first", a)
			}
		}
		if a.HasRepeatedVars() {
			return Step{}, false, fmt.Errorf("pack: atom %s has repeated variables; run ElimPatterns first", a)
		}
		changed = true
		u := query.Var("u_" + a.Rel.Name)
		for used.Has(u) {
			u += "'"
		}
		used.Add(u)
		k := a.Rel.KeyLen
		newRel := schema.Relation{Name: a.Rel.Name + "_k", Arity: a.Rel.Arity + 1, KeyLen: 1, Mode: schema.ModeI}
		encRel := schema.Relation{Name: a.Rel.Name + "_enc", Arity: k + 1, KeyLen: k, Mode: schema.ModeC}
		decRel := schema.Relation{Name: a.Rel.Name + "_dec", Arity: k + 1, KeyLen: 1, Mode: schema.ModeC}
		packs[a.Rel.Name] = pack{newRel: newRel, encRel: encRel, decRel: decRel, k: k}

		mainArgs := append([]query.Term{query.V(u)}, a.Args...)
		encArgs := append(append([]query.Term{}, a.KeyArgs()...), query.V(u))
		decArgs := append([]query.Term{query.V(u)}, a.KeyArgs()...)
		newAtoms = append(newAtoms,
			query.Atom{Rel: newRel, Args: mainArgs},
			query.Atom{Rel: encRel, Args: encArgs},
			query.Atom{Rel: decRel, Args: decArgs},
		)
	}
	if !changed {
		return Step{}, false, nil
	}
	q2 := query.NewQuery(newAtoms...)
	step := Step{
		Name: "pack-keys",
		Q:    q2,
		TransformDB: func(d *db.DB, chk *evalctx.Checker) (*db.DB, error) {
			out := db.New()
			for _, f := range d.Facts() {
				if err := chk.Step(); err != nil {
					return nil, err
				}
				facts := []db.Fact{f}
				if p, ok := packs[f.Rel.Name]; ok {
					key := f.Args[:p.k]
					u := packConst(f.Rel.Name, key)
					facts = []db.Fact{
						{Rel: p.newRel, Args: append([]query.Const{u}, f.Args...)},
						{Rel: p.encRel, Args: append(append([]query.Const{}, key...), u)},
						{Rel: p.decRel, Args: append([]query.Const{u}, key...)},
					}
				}
				// The packed relations' names are not fresh: one the query
				// already uses under another signature is an error.
				for _, g := range facts {
					if _, err := out.Insert(g); err != nil {
						return nil, err
					}
				}
			}
			return out, nil
		},
	}
	return step, true, nil
}

// unsaturatedPair returns a witness (x, z) for non-saturation, or empty
// variables when q is saturated (Definition 3): whenever K(q) |= x -> z
// and K([[q]]) does not, some atom F with K(q) |= x -> key(F) attacks x
// or z.
func unsaturatedPair(q query.Query) (query.Var, query.Var, error) {
	g, err := attack.BuildGraph(q)
	if err != nil {
		return "", "", err
	}
	kq := fd.K(q)
	kc := fd.K(q.ConsistentPart())
	vars := q.Vars().Sorted()
	for _, x := range vars {
		closureQ := kq.Closure(query.NewVarSet(x))
		closureC := kc.Closure(query.NewVarSet(x))
		for _, z := range vars {
			if !closureQ.Has(z) || closureC.Has(z) {
				continue
			}
			// Some F with K(q) |= x -> key(F) must attack x or z.
			witnessed := false
			for i, a := range q.Atoms {
				if !a.KeyVars().SubsetOf(closureQ) {
					continue
				}
				if g.AttacksVar(i, x) || g.AttacksVar(i, z) {
					witnessed = true
					break
				}
			}
			if !witnessed {
				return x, z, nil
			}
		}
	}
	return "", "", nil
}

// Saturation is one step of Lemma 11: for a witness pair (x, z) of
// non-saturation, the query Q adds a fresh atom T^c(x | z) to the query
// the step extends.
type Saturation struct {
	Name string
	Q    query.Query
	atom query.Atom
	x, z match.Arg // where x and z sit in the query the step extends
}

// Saturate returns the next Lemma 11 step for q, and false when q is
// saturated (Definition 3). Repeating it until q is saturated is Lemma
// 11's saturation.
func Saturate(q query.Query) (Saturation, bool, error) {
	x, z, err := unsaturatedPair(q)
	if err != nil || x == "" && z == "" {
		return Saturation{}, false, err
	}
	name := "Tsat0"
	for q.HasRel(name) {
		name += "x"
	}
	atom := query.NewAtom(schema.Relation{Name: name, Arity: 2, KeyLen: 1, Mode: schema.ModeC}, query.V(x), query.V(z))
	return Saturation{Name: "saturate-" + name, Q: q.Add(atom), atom: atom, x: match.ArgOf(q, x), z: match.ArgOf(q, z)}, true, nil
}

// TransformDB is the step's database side. It takes a repair-constraint
// form of the query the step extends, every constraint of which is
// read as an embedding θ (match.GPurify returns such a form), and
// returns the form's blocks plus T(θ(x) | θ(z)) for every θ. Under
// Lemma 11's preconditions this projection is consistent; TransformDB
// verifies that and fails otherwise rather than emit an illegal
// instance. The checker is polled once per constraint read.
func (s Saturation) TransformDB(cs *match.Constraints, chk *evalctx.Checker) (*db.DB, error) {
	out := cs.Copy()
	seen := make(map[query.Const]query.Const)
	for ci := range cs.Cons {
		if err := chk.Step(); err != nil {
			return nil, err
		}
		a, b := cs.Value(ci, s.x), cs.Value(ci, s.z)
		if prev, dup := seen[a]; dup {
			if prev != b {
				return nil, fmt.Errorf("saturation projection %s(%s | %s) is inconsistent; Lemma 11 preconditions violated", s.atom.Rel.Name, s.atom.Args[0], s.atom.Args[1])
			}
			continue
		}
		seen[a] = b
		out.Add(db.Fact{Rel: s.atom.Rel, Args: []query.Const{a, b}})
	}
	return out, nil
}
