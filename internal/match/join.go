package match

import (
	"slices"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/query"
)

// The join is compiled from a query and the variables bound before it
// runs. Which atom the backtracking join matches next depends only on
// which variables are bound, never on their values, so the atom order
// is fixed at compile time: a fully bound key first, then the most
// bound positions, ties to the lowest atom index. Variables are
// numbered into slots, and every argument position of an atom becomes
// one op that compares the fact's value with a constant or a slot, or
// binds a slot.

type opKind uint8

const (
	opConst opKind = iota // the fact's value must be c
	opEq                  // the fact's value must equal slots[slot]
	opBind                // the fact's value goes into slots[slot]
)

// op is one compiled argument position of an atom.
type op struct {
	kind opKind
	slot int32
	c    query.Const
}

// access is how a step finds the facts its atom may match.
type access uint8

const (
	scanAll  access = iota // no position bound: every fact of the relation
	probeKey               // the key is bound: the one block with that key
	lookup                 // some position bound, the key not: a lookup table
)

// step is one atom of the compiled join, with one op per argument
// position in position order. rel indexes the plan's relation names;
// atoms of one relation share it. A probe takes its key from
// ops[:keyLen]. A lookup table holds the facts whose constants match,
// keyed by their value at position tableKey, the first position bound
// by an earlier step (-1 when only constants are bound).
type step struct {
	atom     int
	rel      int
	access   access
	keyLen   int
	tableKey int
	ops      []op
}

// joinPlan is a join compiled for one query and one set of variables
// bound on entry. It holds no reference to a database, so one plan
// serves any number of walks.
type joinPlan struct {
	vars  []query.Var // slot -> variable; the variables bound on entry first
	rels  []string    // the steps' relation names, each once
	steps []step
}

// compile orders q's atoms the way the join visits them when the
// variables in bound are bound on entry, and compiles each into ops.
func compile(q query.Query, bound []query.Var) *joinPlan {
	p := &joinPlan{vars: append([]query.Var(nil), bound...), rels: make([]string, 0, q.Len()), steps: make([]step, 0, q.Len())}
	done := make([]bool, q.Len())
	for range q.Atoms {
		next, bestBound, bestKey := -1, -1, false
		for i, a := range q.Atoms {
			if done[i] {
				continue
			}
			b, kb := p.boundCount(a)
			if kb && !bestKey {
				next, bestBound, bestKey = i, b, true
			} else if kb == bestKey && b > bestBound {
				next, bestBound = i, b
			}
		}
		done[next] = true
		p.steps = append(p.steps, p.compileStep(next, q.Atoms[next], bestBound, bestKey))
	}
	return p
}

// slotOf returns the slot of a bound variable, or -1.
func (p *joinPlan) slotOf(v query.Var) int32 {
	for i, w := range p.vars {
		if w == v {
			return int32(i)
		}
	}
	return -1
}

// boundCount counts the atom's positions bound so far, constants
// included, and reports whether its key is fully bound.
func (p *joinPlan) boundCount(a query.Atom) (bound int, keyFullyBound bool) {
	keyFullyBound = true
	for i, t := range a.Args {
		if t.IsConst() || p.slotOf(t.Var()) >= 0 {
			bound++
		} else if i < a.Rel.KeyLen {
			keyFullyBound = false
		}
	}
	return bound, keyFullyBound
}

// compileStep compiles atom i and numbers the variables it binds.
func (p *joinPlan) compileStep(i int, a query.Atom, bound int, keyBound bool) step {
	st := step{atom: i, rel: slices.Index(p.rels, a.Rel.Name), keyLen: a.Rel.KeyLen, tableKey: -1, ops: make([]op, len(a.Args))}
	if st.rel < 0 {
		st.rel = len(p.rels)
		p.rels = append(p.rels, a.Rel.Name)
	}
	switch {
	case keyBound:
		st.access = probeKey
	case bound > 0:
		st.access = lookup
	}
	entry := int32(len(p.vars))
	for pos, t := range a.Args {
		if t.IsConst() {
			st.ops[pos] = op{kind: opConst, c: t.Const()}
			continue
		}
		s := p.slotOf(t.Var())
		if s < 0 {
			st.ops[pos] = op{kind: opBind, slot: int32(len(p.vars))}
			p.vars = append(p.vars, t.Var())
			continue
		}
		st.ops[pos] = op{kind: opEq, slot: s}
		if s < entry && st.tableKey < 0 {
			st.tableKey = pos
		}
	}
	return st
}

// unify applies the ops to the arguments at the same positions: it
// reports whether every comparison holds, binding slots on the way. A
// failed unify leaves slots it bound written, which is harmless: only
// later ops of the same atom and later steps read them, and those run
// only on success.
func unify(ops []op, args, slots []query.Const) bool {
	for i, o := range ops {
		switch o.kind {
		case opConst:
			if args[i] != o.c {
				return false
			}
		case opEq:
			if args[i] != slots[o.slot] {
				return false
			}
		default:
			slots[o.slot] = args[i]
		}
	}
	return true
}

// resolve resolves the plan's relations in d, by relation index.
func (p *joinPlan) resolve(d *db.DB) []db.Rel {
	rels := make([]db.Rel, len(p.rels))
	for i, name := range p.rels {
		rels[i] = d.Rel(name)
	}
	return rels
}

// table is a lookup step's index over its relation, built inside one
// walk. refs lists the facts whose constants match, as (block position
// in the relation, slot). Entries are numbered from 1; head maps a value at
// the step's tableKey position to the first entry with it, next[e-1] is
// the entry after e with the same value, and 0 ends a chain. A chain
// lists its facts in block then slot order, the order a scan meets
// them. The table refers to the database's blocks and copies no fact.
type table struct {
	scanned bool // the step's first visit scanned instead
	head    map[query.Const]int32
	refs    []Ref
	next    []int32
}

// joiner is the state of one walk of a compiled join.
type joiner struct {
	p      *joinPlan
	rels   []db.Rel // by relation index
	chk    *evalctx.Checker
	slots  []query.Const
	hits   []hit   // by atom index
	tables []table // by step; only lookup steps use theirs
	yield  func([]hit) bool
}

// walk runs the compiled join over the plan's relations resolved in
// rels, with slots holding the values of the variables bound on entry,
// calling yield with the hit of every atom in atom order (reused across
// calls) for each embedding; the slots then hold the embedding's
// values. The checker is polled once per candidate fact and once per
// fact a lookup table indexes. It returns false when yield stopped the
// walk or the checker tripped.
func walk(p *joinPlan, rels []db.Rel, slots []query.Const, chk *evalctx.Checker, yield func([]hit) bool) bool {
	r := joiner{p: p, rels: rels, chk: chk, slots: slots, hits: make([]hit, len(p.steps)), yield: yield}
	for _, st := range p.steps {
		if st.access == lookup {
			r.tables = make([]table, len(p.steps))
			break
		}
	}
	return r.rec(0)
}

func (r *joiner) rec(d int) bool {
	if d == len(r.p.steps) {
		return r.yield(r.hits)
	}
	st := &r.p.steps[d]
	switch st.access {
	case probeKey:
		var buf [8]query.Const
		key := buf[:0]
		for _, o := range st.ops[:st.keyLen] {
			if o.kind == opConst {
				key = append(key, o.c)
			} else {
				key = append(key, r.slots[o.slot])
			}
		}
		rel := &r.rels[st.rel]
		pos, ok := rel.BlockByKey(key)
		return !ok || r.scan(d, rel.Blocks()[pos], int32(pos), st.keyLen)
	case lookup:
		// The first visit scans, so a step met once costs what a scan
		// does; from the second on it reads the table.
		t := &r.tables[d]
		if t.scanned {
			if t.head == nil && !r.build(st, t) {
				return false
			}
			return r.probeTable(d, st, t)
		}
		t.scanned = true
	}
	for pos, blk := range r.rels[st.rel].Blocks() {
		if !r.scan(d, blk, int32(pos), 0) {
			return false
		}
	}
	return true
}

// scan unifies step d's atom with each fact of blk, the block at pos in
// its relation, in slot order, from position from on, and recurses on
// every success.
func (r *joiner) scan(d int, blk db.Block, pos int32, from int) bool {
	st := &r.p.steps[d]
	for s := range blk.Facts {
		if r.chk.Step() != nil {
			return false
		}
		if !unify(st.ops[from:], blk.Facts[s].Args[from:], r.slots) {
			continue
		}
		r.hits[st.atom] = hit{pos: pos, slot: int32(s)}
		if !r.rec(d + 1) {
			return false
		}
	}
	return true
}

// probeTable recurses on each fact of the table chain the bound slot
// selects. Every op is checked again, the cheap way to cover bound
// positions other than tableKey.
func (r *joiner) probeTable(d int, st *step, t *table) bool {
	var k query.Const
	if st.tableKey >= 0 {
		k = r.slots[st.ops[st.tableKey].slot]
	}
	for e := t.head[k]; e != 0; e = t.next[e-1] {
		if r.chk.Step() != nil {
			return false
		}
		ref := t.refs[e-1]
		if !unify(st.ops, r.rels[st.rel].Blocks()[ref.Block].Facts[ref.Slot].Args, r.slots) {
			continue
		}
		r.hits[st.atom] = hit{pos: ref.Block, slot: ref.Slot}
		if !r.rec(d + 1) {
			return false
		}
	}
	return true
}

// build indexes the step's relation, polling the checker once per fact.
// It walks the facts backwards, so each chain, grown at its head, lists
// them forwards. It reports false when the checker tripped.
func (r *joiner) build(st *step, t *table) bool {
	blocks := r.rels[st.rel].Blocks()
	n := 0
	for _, blk := range blocks {
		n += len(blk.Facts)
	}
	t.head = make(map[query.Const]int32)
	t.refs, t.next = make([]Ref, 0, n), make([]int32, 0, n)
	for b := len(blocks) - 1; b >= 0; b-- {
		facts := blocks[b].Facts
	facts:
		for s := len(facts) - 1; s >= 0; s-- {
			if r.chk.Step() != nil {
				return false
			}
			args := facts[s].Args
			for i, o := range st.ops {
				if o.kind == opConst && args[i] != o.c {
					continue facts
				}
			}
			var k query.Const
			if st.tableKey >= 0 {
				k = args[st.tableKey]
			}
			t.refs = append(t.refs, Ref{Block: int32(b), Slot: int32(s)})
			t.next = append(t.next, t.head[k])
			t.head[k] = int32(len(t.refs))
		}
	}
	return true
}
