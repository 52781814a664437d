// Package sym implements string interning for the columnar view: every
// constant of a database is mapped to a dense uint32 ID, so the
// interned FO walk compares and hashes machine words instead of
// strings. The view's build and splice intern the data; the walk
// interns a query's constants and prints IDs back. A Table is
// append-only — IDs are assigned sequentially from 0 in interning order
// and are never reused — which makes a build that interns constants in
// a deterministic order produce a deterministic ID assignment.
package sym

import "sync"

// ID is an interned constant. IDs are dense: a table with n symbols has
// exactly the IDs 0..n-1.
type ID uint32

// Table is a bidirectional string↔ID map, safe for concurrent use.
// Reads take a shared lock and never allocate; Intern takes the
// exclusive lock only when the string is new.
type Table struct {
	mu   sync.RWMutex
	ids  map[string]ID
	strs []string
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{ids: make(map[string]ID)}
}

// Intern returns the ID of s, assigning the next free ID when s has not
// been seen before. Interning an unknown string is always safe on read
// paths: a fresh ID occurs in no stored column, so comparisons against
// it fail exactly as the string comparisons would.
func (t *Table) Intern(s string) ID {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	id = ID(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// String returns the string of an interned ID. It panics on an ID the
// table never assigned, like a slice bounds error would.
func (t *Table) String(id ID) string {
	t.mu.RLock()
	s := t.strs[id]
	t.mu.RUnlock()
	return s
}

// Len returns the number of interned symbols.
func (t *Table) Len() int {
	t.mu.RLock()
	n := len(t.strs)
	t.mu.RUnlock()
	return n
}
