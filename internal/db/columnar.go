package db

import (
	"maps"
	"sort"

	"cqa/internal/colstore"
	"cqa/internal/schema"
	"cqa/internal/sym"
)

// ColRel is the columnar view of one relation: the struct-of-arrays
// storage the interned FO walk reads, laid out in the relation
// segment's block order, so span b holds the facts of the segment's
// block b (BlocksOf(name)[b]).
type ColRel struct {
	// Rel is the column store: blocks as contiguous row spans over flat
	// interned columns.
	Rel *colstore.Rel
	// Relation is the signature every stored fact carries.
	Relation schema.Relation
}

// ColDB is the columnar view of a database: one symbol table interning
// every constant plus one ColRel per relation with facts. Every relation
// has one signature (the db invariant Insert and Apply enforce), so
// every relation has a columnar form. Built once per DB (see Columnar)
// and immutable afterwards; safe for concurrent use. Only the interned
// FO walk reads it: every by-key probe (DB.Rel, DB.BlockByKey) reads
// the segments' key tables, warm view or not.
//
// A view derived by Apply shares the parent's symbol table (it is
// append-only, so parent IDs stay valid) and the parent's ColRel for
// every untouched relation; only touched relations are respliced. So a
// program compiled against the parent (interned constants plus ColRel
// pointers) stays valid in the child exactly when none of its relations
// was touched — the check its owner makes before reusing it.
type ColDB struct {
	Syms *sym.Table

	rels map[string]*ColRel
}

// Rel returns the columnar relation, or nil when the relation has no
// facts.
func (c *ColDB) Rel(name string) *ColRel { return c.rels[name] }

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
	return c
}

// deriveColumnar builds the child's columnar view from pc, the view of
// parent: untouched relations alias the parent's ColRel (so span
// indices and programs compiled against them stay valid), and
// each touched relation is respliced — untouched block runs copy
// column-wise, modified blocks re-intern in place, removed blocks drop,
// and added blocks append at the end. The shared symbol table is
// append-only, so every parent ID stays valid in the child.
func deriveColumnar(parent *DB, pc *ColDB, child *DB, ch *ChangeSet) *ColDB {
	c := &ColDB{
		Syms: pc.Syms,
		rels: maps.Clone(pc.rels),
	}
	for name, rc := range ch.Rels {
		seg := child.rels[name]
		if seg == nil || len(seg.blocks) == 0 {
			// The relation was emptied: no columnar form.
			delete(c.rels, name)
			continue
		}
		c.rels[name] = spliceColRel(c.Syms, seg, parent.rels[name], pc.rels[name], rc)
	}
	return c
}

// buildColRel lays a relation out column-wise in its segment's block
// order, so span b holds the facts of the segment's block b.
func buildColRel(syms *sym.Table, seg *relSeg) *ColRel {
	rel := seg.rel
	b := colstore.NewBuilder(rel.Name, rel.Arity, rel.KeyLen)
	row := make([]sym.ID, rel.Arity)
	for _, blk := range seg.blocks {
		addBlock(b, syms, row, blk)
	}
	return &ColRel{Rel: b.Build(), Relation: rel}
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
// parent's, in O(delta) work plus column memcpy of the surviving rows.
// It follows the order ApplyChanges gives the child segment: modified
// blocks keep their position, removed blocks drop out with the
// survivors' order preserved, and added blocks append at the end. So
// the result's spans line up with the child segment's blocks, as pr's
// spans line up with pseg's, the parent segment's.
func spliceColRel(syms *sym.Table, seg, pseg *relSeg, pr *ColRel, rc *RelChange) *ColRel {
	if pr == nil {
		// New (or previously empty) relation: build wholesale.
		return buildColRel(syms, seg)
	}
	rel := seg.rel
	b := colstore.NewBuilder(rel.Name, rel.Arity, rel.KeyLen)
	row := make([]sym.ID, rel.Arity)
	// Locate removed and modified blocks by their position in the parent
	// segment, which is their span in pr; both kinds exist in the parent.
	type patch struct {
		idx int32
		blk Block
		mod bool
	}
	patches := make([]patch, 0, len(rc.Removed)+len(rc.Modified))
	locate := func(blk Block) int32 {
		bi, ok := pseg.byID[blk.ID]
		if !ok {
			panic("db: spliceColRel: changed block missing from the parent segment")
		}
		return int32(bi)
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
	return &ColRel{Rel: b.Build(), Relation: rel}
}
