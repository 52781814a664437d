package db

import (
	"maps"
	"sort"
	"sync"

	"cqa/internal/colstore"
	"cqa/internal/schema"
	"cqa/internal/sym"
)

// ColRel is the columnar view of one relation: the
// struct-of-arrays storage laid out in the relation segment's block
// order, plus that segment's blocks, so span indices translate to
// Block values (and their string IDs) without re-deriving anything.
type ColRel struct {
	// Rel is the column store: blocks as contiguous row spans over flat
	// interned columns.
	Rel *colstore.Rel
	// Blocks are the segment's own blocks, in the order of Rel's spans:
	// Blocks[b] holds the facts of span b. Shared with the database.
	Blocks []Block
	// Relation is the signature every stored fact carries.
	Relation schema.Relation
}

// ColDB is the columnar view of a database: one symbol table interning
// every constant plus one ColRel per relation with facts. Every relation
// has one signature (the db invariant Insert and Apply enforce), so
// every relation has a columnar form. Built once per DB (see Columnar)
// and immutable afterwards; safe for concurrent use.
//
// A view derived by Apply shares the parent's symbol table (it is
// append-only, so parent IDs stay valid) and the parent's ColRel for
// every untouched relation; only touched relations are respliced.
type ColDB struct {
	Syms *sym.Table

	rels  map[string]*ColRel
	names []string // relation names, sorted

	// progs caches evaluation programs compiled against this view,
	// keyed by the compiled query artifact (e.g. *rewrite.Eliminator).
	// The view is per-DB and plans are cached per query, so the map
	// stays small; it lives here because program IDs are only valid
	// against this view's symbol table and block order.
	progs sync.Map
}

// ViewProg is implemented by the compiled evaluation programs cached in
// a view's Progs map. When Apply derives a child view, parent programs
// that report themselves still valid are carried over — for queries
// over untouched relations this keeps the warm zero-alloc walk (and its
// cached state) across writes instead of recompiling per version.
type ViewProg interface {
	// ValidFor reports whether the program's compiled references
	// (relation pointers, interned IDs) are still correct against c.
	ValidFor(c *ColDB) bool
}

// Rel returns the columnar relation, or nil when the relation has no
// facts.
func (c *ColDB) Rel(name string) *ColRel { return c.rels[name] }

// RelNames returns the names of the relations with facts, sorted.
// Shared; do not modify.
func (c *ColDB) RelNames() []string { return c.names }

// Progs returns the per-view program cache.
func (c *ColDB) Progs() *sync.Map { return &c.progs }

// Columnar returns the memoized columnar view, building it on first
// use. Racing builders may construct the view twice; the build is
// deterministic (interning order follows fact order), so either result
// is identical and readers stay consistent. ResetCaches drops the view;
// Apply derives the child's view incrementally instead of dropping it.
func (d *DB) Columnar() *ColDB {
	if c := d.colMemo.Load(); c != nil {
		return c
	}
	c := d.buildColumnar()
	d.colMemo.CompareAndSwap(nil, c)
	return d.colMemo.Load()
}

func (d *DB) buildColumnar() *ColDB {
	c := &ColDB{
		Syms: sym.NewTable(),
		rels: make(map[string]*ColRel, len(d.rels)),
	}
	// Interning walks the segments in fact order (first-seen relation,
	// block, slot), so the ID assignment is a pure function of the fact
	// sequence.
	for _, name := range d.relOrder {
		seg := d.rels[name]
		if len(seg.blocks) == 0 {
			continue
		}
		c.rels[name] = buildColRel(c.Syms, seg)
	}
	c.names = make([]string, 0, len(c.rels))
	for name := range c.rels {
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	return c
}

// deriveColumnar builds the child's columnar view from the parent's:
// untouched relations alias the parent's ColRel (so span indices,
// compiled programs, and the interned walk stay warm), and each touched
// relation is respliced — untouched block runs copy column-wise,
// modified blocks re-intern in place, removed blocks drop, and added
// blocks append at the end. The shared symbol table is append-only, so
// every parent ID stays valid in the child.
func deriveColumnar(parent *ColDB, child *DB, ch *ChangeSet) *ColDB {
	c := &ColDB{
		Syms: parent.Syms,
		rels: maps.Clone(parent.rels),
	}
	for name, rc := range ch.Rels {
		seg := child.rels[name]
		if seg == nil || len(seg.blocks) == 0 {
			// The relation was emptied: no columnar form.
			delete(c.rels, name)
			continue
		}
		c.rels[name] = spliceColRel(c.Syms, seg, parent.rels[name], rc)
	}
	c.names = make([]string, 0, len(c.rels))
	for name := range c.rels {
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	// Carry over the compiled programs that remain valid — a program
	// whose every relation still points at the same ColRel sees an
	// identical world, so queries over untouched relations skip the
	// per-version recompile entirely.
	parent.progs.Range(func(k, v any) bool {
		if vp, ok := v.(ViewProg); ok && vp.ValidFor(c) {
			c.progs.Store(k, v)
		}
		return true
	})
	return c
}

// buildColRel lays a relation out column-wise in its segment's block
// order, so span b holds the facts of the segment's block b and the
// segment's own block slice serves as ColRel.Blocks.
func buildColRel(syms *sym.Table, seg *relSeg) *ColRel {
	rel := seg.rel
	b := colstore.NewBuilder(rel.Name, rel.Arity, rel.KeyLen)
	row := make([]sym.ID, rel.Arity)
	for _, blk := range seg.blocks {
		addBlock(b, syms, row, blk)
	}
	return &ColRel{Rel: b.Build(), Blocks: seg.blocks, Relation: rel}
}

// addBlock interns one block's facts and appends them as the next span.
func addBlock(b *colstore.Builder, syms *sym.Table, row []sym.ID, blk Block) {
	b.StartBlock()
	for _, f := range blk.Facts {
		for i, a := range f.Args {
			row[i] = syms.Intern(string(a))
		}
		b.AddRow(row)
	}
}

// spliceColRel rebuilds one touched relation's columnar form from the
// parent's, in O(delta) probe work plus column memcpy of the surviving
// rows. It follows the order ApplyChanges gives the child segment:
// modified blocks keep their position, removed blocks drop out with
// the survivors' order preserved, and added blocks append at the end.
// So the result's spans line up with the child segment's blocks, which
// it shares as ColRel.Blocks.
func spliceColRel(syms *sym.Table, seg *relSeg, pr *ColRel, rc *RelChange) *ColRel {
	if pr == nil {
		// New (or previously empty) relation: build wholesale.
		return buildColRel(syms, seg)
	}
	rel := seg.rel
	b := colstore.NewBuilder(rel.Name, rel.Arity, rel.KeyLen)
	row := make([]sym.ID, rel.Arity)
	// Locate removed and modified blocks in the parent's block order via
	// the interned key probe; their constants are parent data, so the
	// lookups cannot miss.
	type patch struct {
		idx int32
		blk Block
		mod bool
	}
	patches := make([]patch, 0, len(rc.Removed)+len(rc.Modified))
	locate := func(blk Block) int32 {
		key := blk.Facts[0].Key()
		ids := make([]sym.ID, len(key))
		for i, k := range key {
			id, ok := syms.Lookup(string(k))
			if !ok {
				panic("db: spliceColRel: key constant missing from the shared symbol table")
			}
			ids[i] = id
		}
		bi, ok := pr.Rel.BlockByKey(ids)
		if !ok {
			panic("db: spliceColRel: changed block missing from the parent view")
		}
		return bi
	}
	for _, blk := range rc.Removed {
		patches = append(patches, patch{idx: locate(blk)})
	}
	for _, blk := range rc.Modified {
		patches = append(patches, patch{idx: locate(blk), blk: blk, mod: true})
	}
	sort.Slice(patches, func(i, j int) bool { return patches[i].idx < patches[j].idx })
	cur := int32(0)
	for _, p := range patches {
		if p.idx > cur {
			b.AddSpans(pr.Rel, int(cur), int(p.idx))
		}
		if p.mod {
			addBlock(b, syms, row, p.blk)
		}
		cur = p.idx + 1
	}
	if nb := int32(pr.Rel.NumBlocks()); cur < nb {
		b.AddSpans(pr.Rel, int(cur), int(nb))
	}
	for _, blk := range rc.Added {
		addBlock(b, syms, row, blk)
	}
	return &ColRel{Rel: b.Build(), Blocks: seg.blocks, Relation: rel}
}

// maxProbeKey bounds the stack buffer of the interned ground-key probe;
// longer keys (arity > 8 key positions) take the string path.
const maxProbeKey = 8
