// Package db implements uncertain databases: finite sets of facts whose
// relations carry primary keys that may be violated. It provides blocks
// (maximal sets of key-equal facts), repairs (maximal consistent subsets,
// obtained by picking exactly one fact per block), ground-key block
// probes, and repair enumeration.
//
// A DB is organized as per-relation segments (relSeg): each relation owns
// its block slice and key→block table, and the blocks are the only place
// a fact is stored. That layout is what makes MVCC writes cheap — Apply
// builds the next version by cloning only the touched relations'
// segments and aliasing the rest, so a single-fact delta costs
// O(touched relation), not O(database).
package db

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/sym"
)

// Fact is an R-fact: an atom without variables.
type Fact struct {
	Rel  schema.Relation
	Args []query.Const
}

// NewFact builds a fact and checks the argument count against the arity.
func NewFact(rel schema.Relation, args ...query.Const) Fact {
	if len(args) != rel.Arity {
		panic(fmt.Sprintf("db: fact %s expects %d arguments, got %d",
			rel.Name, rel.Arity, len(args)))
	}
	return Fact{Rel: rel, Args: args}
}

// Key returns the primary-key value of the fact.
func (f Fact) Key() []query.Const { return f.Args[:f.Rel.KeyLen] }

// NonKey returns the non-key positions of the fact.
func (f Fact) NonKey() []query.Const { return f.Args[f.Rel.KeyLen:] }

// KeyEqual reports whether f and g are key-equal: same relation name and
// same primary-key value.
func (f Fact) KeyEqual(g Fact) bool {
	if f.Rel != g.Rel {
		return false
	}
	for i := 0; i < f.Rel.KeyLen; i++ {
		if f.Args[i] != g.Args[i] {
			return false
		}
	}
	return true
}

// Equal reports full equality of facts.
func (f Fact) Equal(g Fact) bool {
	if f.Rel != g.Rel {
		return false
	}
	for i := range f.Args {
		if f.Args[i] != g.Args[i] {
			return false
		}
	}
	return true
}

// BlockID returns a canonical identifier for the block of f: the relation
// name plus the key value. Two facts are key-equal iff their BlockIDs match.
func (f Fact) BlockID() string {
	var b strings.Builder
	b.WriteString(f.Rel.Name)
	for _, c := range f.Key() {
		b.WriteByte('\x00')
		b.WriteString(string(c))
	}
	return b.String()
}

// ID returns a canonical identifier for the whole fact.
func (f Fact) ID() string {
	var b strings.Builder
	b.WriteString(f.Rel.Name)
	for _, c := range f.Args {
		b.WriteByte('\x00')
		b.WriteString(string(c))
	}
	return b.String()
}

// String renders the fact like an atom, e.g. R(a | b), with a "#c"
// suffix for mode-c relations and a trailing bar when the whole tuple is
// the key; the output re-parses to the same fact.
func (f Fact) String() string {
	var b strings.Builder
	b.WriteString(f.Rel.Name)
	if f.Rel.Mode == schema.ModeC {
		b.WriteString("#c")
	}
	b.WriteByte('(')
	for i, c := range f.Args {
		if i > 0 {
			if i == f.Rel.KeyLen {
				b.WriteString(" | ")
			} else {
				b.WriteString(", ")
			}
		}
		b.WriteString(string(c))
	}
	if f.Rel.KeyLen == len(f.Args) && len(f.Args) > 0 {
		b.WriteString(" |")
	}
	b.WriteByte(')')
	return b.String()
}

// Block is a maximal set of key-equal facts.
type Block struct {
	ID    string
	Facts []Fact
}

// sameFacts reports whether two blocks hold the identical facts slice
// (Apply's copy-on-write discipline makes slice identity equivalent to
// "this block was not modified between the two versions").
func sameFacts(a, b []Fact) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// relSeg is one relation's segment: its blocks in first-seen order plus
// the block-ID → position table. Segments are the unit of structural
// sharing — Apply aliases untouched segments into the child version and
// clones only the touched ones.
type relSeg struct {
	// rel is the relation's signature, fixed by its first fact: every
	// fact the segment holds carries exactly this schema.Relation
	// (checkSignature rejects the rest at ingestion).
	rel schema.Relation

	blocks []Block
	byID   map[string]int // block ID -> position in blocks

	// shared marks the blocks slice and byID table as aliased by another
	// version: a mutation must clone the segment first. cow marks the
	// Facts slices inside blocks as possibly aliased: a mutation must
	// replace, never append in place (a shared backing array written by
	// two sibling versions would corrupt one of them).
	shared bool
	cow    bool
}

// clone returns a mutable copy of the segment: fresh blocks slice and
// byID table, but the Facts slices inside still alias the original, so
// the clone carries cow and modifications must replace them.
func (s *relSeg) clone() *relSeg {
	return &relSeg{
		rel:    s.rel,
		blocks: append([]Block(nil), s.blocks...),
		byID:   maps.Clone(s.byID),
		cow:    true,
	}
}

// checkSignature rejects a fact whose signature differs from the one
// the segment stores. An empty segment has no signature yet; the first
// block appended to it fixes one.
func (s *relSeg) checkSignature(f Fact) error {
	if len(s.blocks) == 0 || f.Rel == s.rel {
		return nil
	}
	return fmt.Errorf("db: fact %s has signature %s, but relation %s is stored as %s",
		f, f.Rel, f.Rel.Name, s.rel)
}

// DB is an uncertain database: a set of facts organized into per-relation
// segments. The zero value is not ready; use New.
//
// The segments' blocks are the database's one stored form: every fact
// list (Facts, FactsOf, Blocks) is built from them on demand, in one
// order — relations in first-seen order, then block order, then the
// order within the block. The only derived structure is the columnar
// view, memoized on first use and dropped by Add. Concurrent readers are
// safe (the view is published through an atomic pointer); mutation (Add,
// Apply) must not race with other mutations of the same DB. Apply is
// safe to run concurrently with readers of the receiver: it never
// modifies anything readers look at.
type DB struct {
	rels     map[string]*relSeg
	relOrder []string // relation names in first-seen order
	nfacts   int
	nblocks  int

	// sharedOrder marks relOrder as aliased by another version: an
	// extension must copy first, or sibling versions appending into one
	// backing array would corrupt each other.
	sharedOrder bool

	colMemo atomic.Pointer[ColDB]
}

// ResetCaches drops the memoized columnar view, which rebuilds on next
// use. Add calls it automatically — it is exported only so cold-path
// benchmarks can measure the first-request cost of a view build.
func (d *DB) ResetCaches() {
	d.colMemo.Store(nil)
}

// New returns an empty uncertain database.
func New() *DB {
	return &DB{rels: make(map[string]*relSeg)}
}

// FromFacts returns a database containing the given facts.
func FromFacts(facts ...Fact) *DB {
	d := New()
	for _, f := range facts {
		d.Add(f)
	}
	return d
}

// Add inserts a fact; duplicates are ignored. It returns true if the fact
// was new. A duplicate insert is a pure no-op: it does not invalidate the
// memoized columnar view (see TestAddDuplicateKeepsCaches).
// Every relation name has one signature (arity, key length, mode), fixed
// by its first fact: Add panics on a fact that contradicts it, like
// NewFact on a wrong argument count. Insert returns the error instead.
func (d *DB) Add(f Fact) bool {
	added, err := d.Insert(f)
	if err != nil {
		panic(err)
	}
	return added
}

// Insert is Add for facts from outside the program (parsed uploads):
// a fact whose signature contradicts the one stored for its relation
// name is rejected with an error naming both signatures, and the
// database is left unchanged.
func (d *DB) Insert(f Fact) (bool, error) {
	name := f.Rel.Name
	seg := d.rels[name]
	fresh := false
	if seg == nil {
		seg = &relSeg{rel: f.Rel, byID: make(map[string]int)}
		fresh = true
	}
	if err := seg.checkSignature(f); err != nil {
		return false, err
	}
	bid := f.BlockID()
	if bi, ok := seg.byID[bid]; ok {
		for _, g := range seg.blocks[bi].Facts {
			if g.Equal(f) {
				return false, nil
			}
		}
		if seg.shared {
			seg = seg.clone()
			d.rels[name] = seg
		}
		blk := &seg.blocks[bi]
		if seg.cow {
			fs := make([]Fact, len(blk.Facts), len(blk.Facts)+1)
			copy(fs, blk.Facts)
			blk.Facts = append(fs, f)
		} else {
			blk.Facts = append(blk.Facts, f)
		}
	} else {
		if seg.shared {
			seg = seg.clone()
			d.rels[name] = seg
		}
		if len(seg.blocks) == 0 {
			seg.rel = f.Rel
		}
		seg.byID[bid] = len(seg.blocks)
		seg.blocks = append(seg.blocks, Block{ID: bid, Facts: []Fact{f}})
		d.nblocks++
	}
	if fresh {
		d.rels[name] = seg
		d.appendRelOrder(name)
	}
	d.nfacts++
	d.ResetCaches()
	return true, nil
}

// appendRelOrder extends the first-seen relation order, copying first
// when the slice is aliased by another version.
func (d *DB) appendRelOrder(name string) {
	if d.sharedOrder {
		d.relOrder = append(append(make([]string, 0, len(d.relOrder)+1), d.relOrder...), name)
		d.sharedOrder = false
		return
	}
	d.relOrder = append(d.relOrder, name)
}

// Has reports whether the fact is in the database.
func (d *DB) Has(f Fact) bool {
	seg := d.rels[f.Rel.Name]
	if seg == nil {
		return false
	}
	bi, ok := seg.byID[f.BlockID()]
	if !ok {
		return false
	}
	for _, g := range seg.blocks[bi].Facts {
		if g.Equal(f) {
			return true
		}
	}
	return false
}

// Len returns the number of facts.
func (d *DB) Len() int { return d.nfacts }

// Facts returns all facts, built fresh from the blocks: relations in
// first-seen order, then block order, then the order within the block.
// A database and any copy of it built from this list (Clone, a String
// round trip) list their facts identically.
func (d *DB) Facts() []Fact {
	if d.nfacts == 0 {
		return nil
	}
	facts := make([]Fact, 0, d.nfacts)
	for _, name := range d.relOrder {
		for _, b := range d.rels[name].blocks {
			facts = append(facts, b.Facts...)
		}
	}
	return facts
}

// FactsOf returns the facts of the named relation, built fresh from its
// blocks in block order.
func (d *DB) FactsOf(relName string) []Fact {
	seg := d.rels[relName]
	if seg == nil {
		return nil
	}
	var facts []Fact
	for _, b := range seg.blocks {
		facts = append(facts, b.Facts...)
	}
	return facts
}

// Signature returns the signature stored for the named relation; ok
// is false when the relation holds no facts (a nil database holds
// none). It allocates nothing, so a per-request schema check can call
// it on the hot path.
func (d *DB) Signature(relName string) (schema.Relation, bool) {
	if d == nil {
		return schema.Relation{}, false
	}
	seg := d.rels[relName]
	if seg == nil || len(seg.blocks) == 0 {
		return schema.Relation{}, false
	}
	return seg.rel, true
}

// Relations returns the relation names present in the database, sorted.
func (d *DB) Relations() []string {
	names := make([]string, 0, len(d.rels))
	for n, seg := range d.rels {
		if len(seg.blocks) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// RelationOrder returns the relation names in first-seen order, the
// order Blocks and Facts group by; a relation emptied by Apply keeps
// its place. Shared; do not modify.
func (d *DB) RelationOrder() []string { return d.relOrder }

// Blocks returns all blocks, grouped by relation in first-seen order, in
// a fresh slice. The fact slices inside are shared with the database;
// the caller must not modify them.
func (d *DB) Blocks() []Block {
	blocks := make([]Block, 0, d.nblocks)
	for _, name := range d.relOrder {
		blocks = append(blocks, d.rels[name].blocks...)
	}
	return blocks
}

// BlocksOf returns the blocks of the named relation in first-seen order.
// The returned slice is shared with the database; the caller must not
// modify it.
func (d *DB) BlocksOf(relName string) []Block {
	seg := d.rels[relName]
	if seg == nil || len(seg.blocks) == 0 {
		return nil
	}
	return seg.blocks
}

// BlockOf returns block(A, db): the block containing the given fact
// (facts key-equal to it, whether or not A itself is present).
func (d *DB) BlockOf(f Fact) Block {
	bid := f.BlockID()
	if seg := d.rels[f.Rel.Name]; seg != nil {
		if bi, ok := seg.byID[bid]; ok {
			return seg.blocks[bi]
		}
	}
	return Block{ID: bid, Facts: nil}
}

// BlockByKey answers a ground-key probe in O(1): the block of the named
// relation whose primary-key value equals key, if any. This is the fast
// path of the Lemma 9/10 branch loop — when the unattacked atom's key is
// fully instantiated, the one candidate block is hash-looked-up instead
// of scanning every block of the relation.
func (d *DB) BlockByKey(relName string, key []query.Const) (Block, bool) {
	r := d.Rel(relName)
	if i, ok := r.BlockByKey(key); ok {
		return r.blocks[i], true
	}
	return Block{}, false
}

// Rel is one relation of a database version, resolved once for any
// number of probes: its blocks and the key table a probe reads. A
// block's identity within the version is (relation, position in
// Blocks).
type Rel struct {
	name   string
	blocks []Block
	byID   map[string]int // the row-path key table; nil when col answers every probe
	col    *ColRel        // the columnar view's relation; nil when no view is built
	syms   *sym.Table
}

// Rel resolves the named relation. When the columnar view is already
// built (the serving hot path warms it per snapshot), probes read its
// interned key table; the view is only consulted, never built here, so
// row-only callers (ptime residues, purification) never pay for a
// columnar build. A relation with no facts resolves to one with no
// blocks.
func (d *DB) Rel(name string) Rel {
	if c := d.colMemo.Load(); c != nil {
		cr := c.rels[name]
		if cr == nil {
			return Rel{}
		}
		r := Rel{blocks: cr.Blocks, col: cr, syms: c.Syms}
		if cr.Relation.KeyLen > maxProbeKey {
			r.name, r.byID = name, d.rels[name].byID
		}
		return r
	}
	seg := d.rels[name]
	if seg == nil {
		return Rel{}
	}
	return Rel{name: name, blocks: seg.blocks, byID: seg.byID}
}

// Blocks returns the relation's blocks in first-seen order, the order
// BlocksOf returns. Shared with the database; do not modify.
func (r Rel) Blocks() []Block { return r.blocks }

// BlockByKey answers a ground-key probe in O(1): the position in Blocks
// of the block whose primary-key value equals key, if any. On the
// columnar view a key constant the database never mentions is a miss
// without a table probe, and a probe allocates nothing on hit and miss
// alike; keys wider than maxProbeKey take the row path.
func (r Rel) BlockByKey(key []query.Const) (int, bool) {
	if r.col != nil && len(key) <= maxProbeKey {
		if r.col.Relation.KeyLen != len(key) {
			// No block of this relation has a key of that length.
			return 0, false
		}
		var buf [maxProbeKey]sym.ID
		for i, k := range key {
			id, ok := r.syms.Lookup(string(k))
			if !ok {
				return 0, false
			}
			buf[i] = id
		}
		b, ok := r.col.Rel.BlockByKey(buf[:len(key)])
		return int(b), ok
	}
	if r.byID == nil {
		return 0, false
	}
	// The block ID (see Fact.BlockID) is built in a stack buffer, and
	// the map lookup on string(id) copies nothing: a probe whose ID fits
	// the buffer allocates nothing.
	var buf [128]byte
	id := append(buf[:0], r.name...)
	for _, c := range key {
		id = append(id, 0)
		id = append(id, c...)
	}
	bi, ok := r.byID[string(id)]
	return bi, ok
}

// Consistent reports whether no two distinct facts are key-equal, i.e.
// every block is a singleton.
func (d *DB) Consistent() bool {
	for _, seg := range d.rels {
		for _, b := range seg.blocks {
			if len(b.Facts) > 1 {
				return false
			}
		}
	}
	return true
}

// ConsistentFor reports whether every relation with mode c is consistent,
// the legality condition for inputs to CERTAINTY(q) with mode-c relations.
func (d *DB) ConsistentFor() bool {
	for _, seg := range d.rels {
		for _, b := range seg.blocks {
			if len(b.Facts) > 1 && b.Facts[0].Rel.Mode == schema.ModeC {
				return false
			}
		}
	}
	return true
}

// NumBlocks returns the number of blocks.
func (d *DB) NumBlocks() int { return d.nblocks }

// NumRepairs returns the number of repairs (the product of block sizes) as
// a float64; it saturates at +Inf on overflow.
func (d *DB) NumRepairs() float64 {
	n := 1.0
	for _, seg := range d.rels {
		for _, b := range seg.blocks {
			n *= float64(len(b.Facts))
			if math.IsInf(n, 1) {
				return n
			}
		}
	}
	return n
}

// ActiveDomain returns adom(db): the set of constants occurring in the
// database, sorted, in a fresh slice.
func (d *DB) ActiveDomain() []query.Const {
	seen := make(map[query.Const]bool)
	for _, seg := range d.rels {
		for _, b := range seg.blocks {
			for _, f := range b.Facts {
				for _, c := range f.Args {
					seen[c] = true
				}
			}
		}
	}
	adom := make([]query.Const, 0, len(seen))
	for c := range seen {
		adom = append(adom, c)
	}
	sort.Slice(adom, func(i, j int) bool { return adom[i] < adom[j] })
	return adom
}

// Clone returns an independent copy of the database.
func (d *DB) Clone() *DB {
	c := New()
	for _, f := range d.Facts() {
		c.Add(f)
	}
	return c
}

// Filter returns a new database with the facts satisfying keep.
func (d *DB) Filter(keep func(Fact) bool) *DB {
	c := New()
	for _, f := range d.Facts() {
		if keep(f) {
			c.Add(f)
		}
	}
	return c
}

// RestrictRels returns a new database containing only facts of the named
// relations.
func (d *DB) RestrictRels(names map[string]bool) *DB {
	return d.Filter(func(f Fact) bool { return names[f.Rel.Name] })
}

// Repairs enumerates every repair of the database, invoking yield with a
// fact slice (reused between calls; copy it to retain). Enumeration stops
// early when yield returns false. The number of repairs is the product of
// block sizes, so this is only feasible for small databases; the solvers
// use it exclusively as a brute-force oracle.
func (d *DB) Repairs(yield func([]Fact) bool) {
	blocks := d.Blocks()
	repair := make([]Fact, len(blocks))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(blocks) {
			return yield(repair)
		}
		for _, f := range blocks[i].Facts {
			repair[i] = f
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// String renders the database one fact per line (see Facts for the
// order).
func (d *DB) String() string {
	var b strings.Builder
	for i, f := range d.Facts() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.String())
	}
	return b.String()
}
