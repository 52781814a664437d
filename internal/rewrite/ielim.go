package rewrite

// The FO evaluation path: the Lemma 10 walk over the columnar view of
// the database (db.ColDB / colstore.Rel) instead of the row-oriented
// []Fact blocks. Everything the row-oriented reference recursion
// (CertainAcyclic) does with strings, maps, and residue queries happens
// here on machine words:
//
//   - constants are sym.ID words interned once per database,
//   - a valuation is a flat []sym.ID indexed by variable slot with an
//     explicit undo stack,
//   - a block is a contiguous row span over flat columns, probed by
//     ground key through an open-addressing table,
//   - a level whose key is ground, with no other relevant slot bound,
//     leaves a residue that depends on its block alone: its answer is
//     memoized in a per-level array with one epoch-tagged byte per block
//     of the relation (the block memo),
//   - every other level is memoized in an epoch-tagged open-addressing
//     table over uint32-coded keys in a reusable arena — no
//     per-evaluation map, no clearing.
//
// The program compiled against a view and the evaluation state are
// cached per Eliminator (the last program, reused while the view keeps
// its symbol table and relations; one warm state in an atomic slot,
// overflow in a sync.Pool), so the steady-state walk does not allocate
// at all; testing.AllocsPerRun pins this in zeroalloc_test.go.

import (
	"fmt"

	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/match"
	"cqa/internal/query"
	"cqa/internal/sym"
	"cqa/internal/trace"
)

// iterm is one argument position of a compiled atom: a variable slot,
// or an interned constant when slot < 0.
type iterm struct {
	slot int32
	id   sym.ID
}

// ilevel is one level of the interned walk: the columnar relation of
// the atom (nil when the database has no facts for it), the key and
// non-key patterns, the memo-relevant slots, and the extra slots (see
// Eliminator.extraSlots) that decide whether the block memo applies.
type ilevel struct {
	rel      *db.ColRel
	key      []iterm
	nonkey   []iterm
	relevant []int32
	extra    []int32
}

// iprog is an Eliminator compiled against one columnar view: its
// constants are interned in the view's symbol table, and each level
// points at the view's columnar relation.
type iprog struct {
	syms   *sym.Table
	levels []ilevel
	maxKey int
}

// validFor reports whether the program is still correct against c: the
// same symbol table, and every level's columnar relation the same
// object there (nil stays nil). Apply shares the parent's table and
// aliases untouched relations' ColRels into the child view, so a
// program over untouched relations stays valid across writes, and a
// touched relation forces a recompile.
func (p *iprog) validFor(e *Eliminator, c *db.ColDB) bool {
	if p.syms != c.Syms {
		return false
	}
	for i := range p.levels {
		if c.Rel(e.order[i].Rel.Name) != p.levels[i].rel {
			return false
		}
	}
	return true
}

// prog returns the eliminator's program for the view: the last one
// compiled when it is still valid there, else a fresh compile, which
// replaces it. A walk validates once and uses the returned program
// throughout; racing stores may overwrite each other, which is
// harmless, because each program is valid for the view it was checked
// against. It fails when the view stores a relation of the query under
// a signature other than the atom's — the walk would read columns the
// relation does not have.
func (e *Eliminator) prog(c *db.ColDB) (*iprog, error) {
	if p := e.last.Load(); p != nil && p.validFor(e, c) {
		return p, nil
	}
	p, err := e.compileInterned(c)
	if err != nil {
		return nil, err
	}
	e.last.Store(p)
	return p, nil
}

func (e *Eliminator) compileInterned(c *db.ColDB) (*iprog, error) {
	p := &iprog{syms: c.Syms, levels: make([]ilevel, len(e.order))}
	for li, a := range e.order {
		cr := c.Rel(a.Rel.Name)
		if cr != nil && cr.Relation != a.Rel {
			return nil, fmt.Errorf("rewrite: relation %s is stored as %s, the query atom %s expects %s",
				a.Rel.Name, cr.Relation, a, a.Rel)
		}
		terms := func(ts []query.Term) []iterm {
			out := make([]iterm, len(ts))
			for i, t := range ts {
				if t.IsConst() {
					// Intern, not Lookup: a constant the database
					// never mentions gets a fresh ID occurring in no
					// column, so unification against it fails exactly
					// like the string comparison would.
					out[i] = iterm{slot: -1, id: c.Syms.Intern(string(t.Const()))}
				} else {
					out[i] = iterm{slot: e.varSlot[t.Var()]}
				}
			}
			return out
		}
		lv := &p.levels[li]
		lv.rel = cr
		lv.key = terms(a.KeyArgs())
		lv.nonkey = terms(a.NonKeyArgs())
		lv.relevant = e.relevantSlots[li]
		lv.extra = e.extraSlots[li]
		if len(lv.key) > p.maxKey {
			p.maxKey = len(lv.key)
		}
	}
	return p, nil
}

// imemoSlot is one entry of the epoch-tagged memo table; off/n locate
// the coded key in the arena.
type imemoSlot struct {
	epoch uint32
	hash  uint32
	off   uint32
	n     uint16
	val   bool
}

// imemo is the general memo table, for the levels the block memo does
// not cover (a key with a free variable, or a bound extra slot): open
// addressing with linear probing, entries valid only for the current
// epoch. Starting a new evaluation bumps the epoch instead of clearing
// anything, and the key arena resets to length zero — steady state
// reuses both backing arrays without allocating.
type imemo struct {
	slots []imemoSlot
	keys  []uint32
	epoch uint32
	live  int
}

func (m *imemo) reset() {
	m.epoch++
	if m.epoch == 0 {
		// Epoch wrap: stale slots from 2^32 evaluations ago would read
		// as current; clear once and continue.
		for i := range m.slots {
			m.slots[i] = imemoSlot{}
		}
		m.epoch = 1
	}
	m.keys = m.keys[:0]
	m.live = 0
}

func (m *imemo) lookup(key []uint32, hash uint32) (val, ok bool) {
	if len(m.slots) == 0 {
		return false, false
	}
	mask := uint32(len(m.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.epoch != m.epoch {
			return false, false
		}
		if s.hash == hash && int(s.n) == len(key) && wordsEqual(m.keys[s.off:s.off+uint32(s.n)], key) {
			return s.val, true
		}
	}
}

func (m *imemo) insert(key []uint32, hash uint32, val bool) {
	if len(m.slots) == 0 || (m.live+1)*4 > len(m.slots)*3 {
		m.grow()
	}
	mask := uint32(len(m.slots) - 1)
	i := hash & mask
	for {
		s := &m.slots[i]
		if s.epoch != m.epoch {
			break
		}
		if s.hash == hash && int(s.n) == len(key) && wordsEqual(m.keys[s.off:s.off+uint32(s.n)], key) {
			s.val = val
			return
		}
		i = (i + 1) & mask
	}
	off := uint32(len(m.keys))
	m.keys = append(m.keys, key...)
	m.slots[i] = imemoSlot{epoch: m.epoch, hash: hash, off: off, n: uint16(len(key)), val: val}
	m.live++
}

func (m *imemo) grow() {
	n := len(m.slots) * 2
	if n == 0 {
		n = 256
	}
	old := m.slots
	m.slots = make([]imemoSlot, n)
	mask := uint32(n - 1)
	for _, s := range old {
		if s.epoch != m.epoch {
			continue
		}
		i := s.hash & mask
		for m.slots[i].epoch == m.epoch {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

func wordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashWords is FNV-1a over the coded key, one multiply-mix per word.
func hashWords(ws []uint32) uint32 {
	h := uint32(2166136261)
	for _, w := range ws {
		h = (h ^ w) * 16777619
	}
	return h
}

// ieval is one interned evaluation: flat valuation with undo stack,
// the two memos, and scratch buffers. Acquired from the per-Eliminator
// cache and returned after the walk, so repeated evaluations of one
// query reuse every backing array.
type ieval struct {
	prog    *iprog
	chk     *evalctx.Checker
	span    trace.Span
	memoCap int

	bound    []bool
	vals     []sym.ID
	undo     []int32
	keybuf   []sym.ID
	kscratch []uint32
	memo     imemo

	// blk is the block memo: blk[level][b] is blkEpoch<<1 | answer for
	// block b of the level's relation, current only when its epoch is
	// blkEpoch (1..127; a zero byte is never current). A level's array
	// is allocated on its first ground-key visit and regrown when a
	// later view has more blocks. blkLive counts this evaluation's
	// entries, which share the memo budget with memo.live.
	blk      [][]uint8
	blkEpoch uint8
	blkLive  int

	trSteps, trHits, trMisses int64
}

// blkEpochs is the number of block-memo epochs: seven bits, the eighth
// holds the answer.
const blkEpochs = 1 << 7

// acquire returns a ready evaluation state for prog, with the
// eliminator span open: the warm cached state when available (any prog
// of this eliminator fits — the slot counts, key widths and level count
// are fixed per query), a pooled one, or a fresh allocation.
func (e *Eliminator) acquire(p *iprog, chk *evalctx.Checker) *ieval {
	ev := e.ievalCache.Swap(nil)
	if ev == nil {
		ev, _ = e.ievalPool.Get().(*ieval)
	}
	if ev == nil {
		ev = &ieval{
			bound:    make([]bool, len(e.vars)),
			vals:     make([]sym.ID, len(e.vars)),
			keybuf:   make([]sym.ID, p.maxKey),
			kscratch: make([]uint32, 0, 1+len(e.vars)),
			blk:      make([][]uint8, len(p.levels)),
		}
	}
	ev.prog, ev.chk = p, chk
	ev.memoCap = chk.MemoCap()
	ev.trSteps, ev.trHits, ev.trMisses = 0, 0, 0
	ev.undo = ev.undo[:0]
	for i := range ev.bound {
		ev.bound[i] = false
	}
	ev.memo.reset()
	ev.resetBlocks()
	ev.span = chk.Tracer().Begin(trace.StageEliminator)
	return ev
}

// resetBlocks starts a new block-memo epoch. On wrap, entries from
// 127 evaluations ago would read as current: clear once and continue.
func (ev *ieval) resetBlocks() {
	ev.blkEpoch++
	if ev.blkEpoch == blkEpochs {
		for _, m := range ev.blk {
			clear(m)
		}
		ev.blkEpoch = 1
	}
	ev.blkLive = 0
}

// release ends the walk: it closes the span, flushes the effort
// counters to the tracer, returns the state for reuse, and reports the
// checker's error — non-nil when the walk was cut short.
func (e *Eliminator) release(ev *ieval) error {
	chk := ev.chk
	ev.span.End()
	if tr := chk.Tracer(); tr != nil {
		tr.Add(trace.StageEliminator, trace.CtrSteps, ev.trSteps)
		tr.Add(trace.StageEliminator, trace.CtrMemoHits, ev.trHits)
		tr.Add(trace.StageEliminator, trace.CtrMemoMisses, ev.trMisses)
	}
	ev.prog, ev.chk, ev.span = nil, nil, trace.Span{}
	if !e.ievalCache.CompareAndSwap(nil, ev) {
		e.ievalPool.Put(ev)
	}
	return chk.Err()
}

// mayRecord reports whether a fresh answer may enter either memo. Never
// under a tripped checker (the result is a truncated evaluation, not
// the real answer) or past the memo budget (bounded memory beats
// bounded time here: the walk stays correct, it just recomputes).
func (ev *ieval) mayRecord() bool {
	return ev.chk.Err() == nil && (ev.memoCap <= 0 || ev.memo.live+ev.blkLive < ev.memoCap)
}

// encodeKey codes the residue identity at a level into the scratch
// buffer: the level word, then one word per relevant slot —
// vals[slot]+1 when bound, 0 when free. Fixed width per level, so no
// variable-name separators are needed.
func (ev *ieval) encodeKey(level int) []uint32 {
	k := ev.kscratch[:0]
	k = append(k, uint32(level))
	for _, s := range ev.prog.levels[level].relevant {
		if ev.bound[s] {
			k = append(k, uint32(ev.vals[s])+1)
		} else {
			k = append(k, 0)
		}
	}
	return k
}

func (ev *ieval) unify(t iterm, id sym.ID) bool {
	if t.slot < 0 {
		return t.id == id
	}
	if ev.bound[t.slot] {
		return ev.vals[t.slot] == id
	}
	ev.bound[t.slot] = true
	ev.vals[t.slot] = id
	ev.undo = append(ev.undo, t.slot)
	return true
}

func (ev *ieval) undoTo(mark int) {
	for i := len(ev.undo) - 1; i >= mark; i-- {
		ev.bound[ev.undo[i]] = false
	}
	ev.undo = ev.undo[:mark]
}

// groundKey writes the level's key into keybuf and reports whether it
// is ground: every key term a constant or a bound slot.
func (ev *ieval) groundKey(lv *ilevel) bool {
	for i, t := range lv.key {
		switch {
		case t.slot < 0:
			ev.keybuf[i] = t.id
		case ev.bound[t.slot]:
			ev.keybuf[i] = ev.vals[t.slot]
		default:
			return false
		}
	}
	return true
}

func (ev *ieval) anyBound(slots []int32) bool {
	for _, s := range slots {
		if ev.bound[s] {
			return true
		}
	}
	return false
}

// run is one level of the walk: poll, then decide the level. A ground
// key is probed once: a key absent from the relation (or a relation
// with no facts) is false with no memo entry, and a present block is
// read from and recorded in the block memo when no extra slot is bound.
// Every other visit goes through the general memo table; its scratch
// key is clobbered by deeper levels during the walk, so the insert
// re-encodes — the bindings are restored by then, producing the
// identical words.
func (ev *ieval) run(level int) bool {
	if ev.chk.Step() != nil {
		return false
	}
	ev.trSteps++
	if level == len(ev.prog.levels) {
		return true
	}
	lv := &ev.prog.levels[level]
	if lv.rel == nil {
		ev.trMisses++
		return false
	}
	b := int32(-1) // the probed block of a ground key, -1 for a scan
	if ev.groundKey(lv) {
		var ok bool
		if b, ok = lv.rel.Rel.BlockByKey(ev.keybuf[:len(lv.key)]); !ok {
			ev.trMisses++
			return false
		}
		if !ev.anyBound(lv.extra) {
			return ev.blockMemo(level, b)
		}
	}
	key := ev.encodeKey(level)
	h := hashWords(key)
	if v, ok := ev.memo.lookup(key, h); ok {
		ev.trHits++
		return v
	}
	ev.trMisses++
	res := ev.eval(level, b)
	if ev.mayRecord() {
		ev.memo.insert(ev.encodeKey(level), h, res)
	}
	return res
}

// blockMemo decides block b of a ground-key level through the block
// memo.
func (ev *ieval) blockMemo(level int, b int32) bool {
	m := ev.blk[level]
	if int(b) >= len(m) {
		n := ev.prog.levels[level].rel.Rel.NumBlocks()
		grown := make([]uint8, n+n/8+64)
		copy(grown, m)
		m = grown
		ev.blk[level] = m
	}
	if e := m[b]; e>>1 == ev.blkEpoch {
		ev.trHits++
		return e&1 == 1
	}
	ev.trMisses++
	res := ev.blockCertain(level, b)
	if ev.mayRecord() {
		e := ev.blkEpoch << 1
		if res {
			e |= 1
		}
		m[b] = e
		ev.blkLive++
	}
	return res
}

// eval decides a level by its probed block b, or by scanning every
// block when b < 0 (the key is not ground).
func (ev *ieval) eval(level int, b int32) bool {
	if b >= 0 {
		return ev.blockCertain(level, b)
	}
	for b, nb := int32(0), int32(ev.prog.levels[level].rel.Rel.NumBlocks()); b < nb; b++ {
		if ev.blockCertain(level, b) {
			return true
		}
	}
	return false
}

// blockCertain is the Lemma 9 test over one span: the key pattern must
// unify with the block key, and every row must unify the non-key
// pattern and leave a certain residue. Bindings are undone through the
// explicit stack.
func (ev *ieval) blockCertain(level int, b int32) bool {
	lv := &ev.prog.levels[level]
	r := lv.rel.Rel
	lo, hi := r.Span(b)
	mark := len(ev.undo)
	for i, t := range lv.key {
		if !ev.unify(t, r.Col(i)[lo]) {
			ev.undoTo(mark)
			return false
		}
	}
	kl := len(lv.key)
	good := true
	for row := lo; row < hi; row++ {
		m2 := len(ev.undo)
		ok := true
		for i, t := range lv.nonkey {
			if !ev.unify(t, r.Col(kl + i)[row]) {
				ok = false
				break
			}
		}
		if ok {
			ok = ev.run(level + 1)
		}
		ev.undoTo(m2)
		if !ok {
			good = false
			break
		}
	}
	ev.undoTo(mark)
	return good
}

// CertainChecked decides CERTAINTY of the compiled query over the
// indexed database, instantiated by the initial valuation (typically a
// candidate binding of free variables; nil for the Boolean query).
// Instantiation never adds attacks (Lemma 6), so the compiled order
// remains valid; initial is not modified. The walk polls chk once per
// recursion step and unwinds as soon as the checker trips. A non-nil error means the evaluation was cut short (or
// the stored signatures contradict the query) and the boolean is
// meaningless — callers must check the error first. A nil checker
// enforces nothing.
func (e *Eliminator) CertainChecked(ix *match.Index, initial query.Valuation, chk *evalctx.Checker) (bool, error) {
	c := ix.DB.Columnar()
	p, err := e.prog(c)
	if err != nil {
		return false, err
	}
	ev := e.acquire(p, chk)
	for v, cst := range initial {
		slot, known := e.varSlot[v]
		if !known {
			continue // bindings of foreign variables are inert
		}
		ev.bound[slot] = true
		ev.vals[slot] = c.Syms.Intern(string(cst))
	}
	res := ev.run(0)
	if err := e.release(ev); err != nil {
		return false, err
	}
	return res, nil
}

// topSpans resolves the top-level block list of a restricted walk: the
// program, the first elimination atom's columnar relation (nil when it
// has no facts), and the number of blocks to visit — len(spans), or
// every block when spans is nil. Span indices must belong to the view:
// the shard partitions are built from the same snapshot the index
// wraps, so an index out of range is a caller bug, reported as an
// error rather than a panic.
func (e *Eliminator) topSpans(c *db.ColDB, spans []int32) (*iprog, *db.ColRel, int, error) {
	p, err := e.prog(c)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(p.levels) == 0 {
		return nil, nil, 0, fmt.Errorf("rewrite: the empty query has no top relation")
	}
	cr := p.levels[0].rel
	nb := int32(0)
	if cr != nil {
		nb = int32(cr.Rel.NumBlocks())
	}
	for _, s := range spans {
		if s < 0 || s >= nb {
			return nil, nil, 0, fmt.Errorf("rewrite: block index %d outside the %d blocks of %s",
				s, nb, e.order[0].Rel.Name)
		}
	}
	if spans != nil {
		return p, cr, len(spans), nil
	}
	return p, cr, int(nb), nil
}

// CertainOverSpans is CertainChecked with the top level of the walk
// restricted to the given block indices of the first elimination
// atom's relation in the columnar view (nil = every block). The Lemma
// 10 top level is an existential over the blocks of that relation —
// some block must pass the Lemma 9 test — so a caller that partitions
// the relation's blocks can evaluate each part independently and OR the
// results: the partition's union decides exactly what CertainChecked
// decides. This is the per-shard task of the scatter-gather path.
func (e *Eliminator) CertainOverSpans(ix *match.Index, spans []int32, chk *evalctx.Checker) (bool, error) {
	c := ix.DB.Columnar()
	p, cr, n, err := e.topSpans(c, spans)
	if err != nil {
		return false, err
	}
	if cr == nil {
		return false, chk.Err()
	}
	ev := e.acquire(p, chk)
	res := false
	for i := 0; i < n; i++ {
		b := int32(i)
		if spans != nil {
			b = spans[i]
		}
		if ev.chk.Step() != nil {
			break
		}
		ev.trSteps++
		if ev.blockCertain(0, b) {
			res = true
			break
		}
	}
	if err := e.release(ev); err != nil {
		return false, err
	}
	return res, nil
}

// SweepSpans is the certain-answers block sweep (see SweepableFree,
// which must hold for free): for each listed block of the top relation
// (nil = every block) the candidate answer is read off the block key,
// the block runs the Lemma 9 test under it, and the passing answers are
// appended to out as rows over free, in span order. Both memos are
// shared across the whole sweep — bindings eliminated from the
// residue's relevant set let distinct candidates share entries. A warm
// sweep into a table truncated to out[:0] allocates nothing. A non-nil
// error means the sweep was cut short and the table is meaningless.
func (e *Eliminator) SweepSpans(ix *match.Index, spans []int32, free []query.Var, out query.Answers, chk *evalctx.Checker) (query.Answers, error) {
	c := ix.DB.Columnar()
	p, cr, n, err := e.topSpans(c, spans)
	if err != nil {
		return nil, err
	}
	// Column position of each free variable in the top atom's key, in a
	// stack buffer so a warm sweep allocates nothing.
	lv := &p.levels[0]
	var colBuf [8]int
	freeCol := colBuf[:0]
	for _, v := range free {
		slot, known := e.varSlot[v]
		col := -1
		for i, t := range lv.key {
			if known && t.slot == slot {
				col = i
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("rewrite: free variable %s is not a key variable of %s", v, e.order[0])
		}
		freeCol = append(freeCol, col)
	}
	if cr == nil {
		return out, chk.Err()
	}
	r := cr.Rel
	ev := e.acquire(p, chk)
	for i := 0; i < n; i++ {
		b := int32(i)
		if spans != nil {
			b = spans[i]
		}
		if ev.chk.Step() != nil {
			break
		}
		ev.trSteps++
		if ev.blockCertain(0, b) && ev.chk.Err() == nil {
			lo, _ := r.Span(b)
			var row []query.Const
			out, row = out.Add(len(free))
			for j, col := range freeCol {
				row[j] = query.Const(c.Syms.String(r.Col(col)[lo]))
			}
		}
	}
	if err := e.release(ev); err != nil {
		return nil, err
	}
	return out, nil
}
