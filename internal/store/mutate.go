package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"cqa/internal/db"
	"cqa/internal/faultinject"
	"cqa/internal/match"
	"cqa/internal/schema"
	"cqa/internal/wal"
)

// ErrNotFound reports a mutation against a name with no snapshot.
var ErrNotFound = errors.New("store: database not found")

// ErrCommitAborted reports a delta whose batch, or an earlier batch of
// the same name it was queued behind, panicked while committing (a WAL
// append failure or an injected fault): the delta was not published.
var ErrCommitAborted = errors.New("store: commit aborted by a panic; delta not published")

// mutator serializes the deltas of one name into group commits: the
// first arrival becomes the leader and commits everything queued behind
// it as one Apply, so a burst of concurrent writers pays one version
// swap (and one WAL fsync) per batch instead of one per delta. All
// waiters of a batch observe the same published snapshot.
type mutator struct {
	mu    sync.Mutex
	queue []*pendingDelta
	busy  bool
}

type pendingDelta struct {
	delta db.Delta
	done  chan struct{}

	snap *Snapshot
	res  *db.ApplyResult
	err  error
}

func (p *pendingDelta) finish(snap *Snapshot, res *db.ApplyResult, err error) {
	p.snap, p.res, p.err = snap, res, err
	close(p.done)
}

// abort fails the delta with ErrCommitAborted unless a commit already
// finished it. Only the leader finishes deltas, so the check is not racy.
func (p *pendingDelta) abort() {
	select {
	case <-p.done:
	default:
		p.finish(nil, nil, ErrCommitAborted)
	}
}

func (s *Store) mutatorFor(name string) *mutator {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.muts == nil {
		s.muts = make(map[string]*mutator)
	}
	m, ok := s.muts[name]
	if !ok {
		m = &mutator{}
		s.muts[name] = m
	}
	return m
}

// ApplyDelta applies the delta to the named database's current snapshot
// and publishes the result as the next version. Concurrent deltas on
// one name are group-committed (see mutator); the returned snapshot is
// the version the delta is visible in, which batching may share across
// waiters, and the returned result carries the batch's statistics and
// change set. A delta with no net effect publishes nothing and returns
// the current snapshot. Deltas that would make a mode-c relation
// violate its primary key are rejected, checking only the blocks the
// change set names.
func (s *Store) ApplyDelta(name string, delta db.Delta) (*Snapshot, *db.ApplyResult, error) {
	if err := delta.Validate(); err != nil {
		return nil, nil, err
	}
	m := s.mutatorFor(name)
	p := &pendingDelta{delta: delta, done: make(chan struct{})}
	m.mu.Lock()
	m.queue = append(m.queue, p)
	if m.busy {
		m.mu.Unlock()
		<-p.done
		return p.snap, p.res, p.err
	}
	m.busy = true
	var batch []*pendingDelta
	committed := false
	defer func() {
		if committed {
			return
		}
		// commitBatch panicked and the panic is unwinding through here:
		// release the name and fail everything not yet finished, or its
		// waiters and every later writer would block forever.
		m.mu.Lock()
		rest := append(batch, m.queue...)
		m.queue = nil
		m.busy = false
		m.mu.Unlock()
		for _, p := range rest {
			p.abort()
		}
	}()
	for len(m.queue) > 0 {
		batch = m.queue
		m.queue = nil
		m.mu.Unlock()
		s.commitBatch(name, batch)
		m.mu.Lock()
	}
	m.busy = false
	m.mu.Unlock()
	committed = true
	return p.snap, p.res, p.err
}

// commitBatch merges the batch into one delta, applies it to the
// current snapshot, and publishes the child version: WAL append first
// (redo logging — a crash after the append replays the mutation on
// boot), then the version swap. A merged batch that fails falls back to
// committing each delta individually, so one bad delta does not take
// its batchmates down with it.
func (s *Store) commitBatch(name string, batch []*pendingDelta) {
	var merged db.Delta
	if len(batch) == 1 {
		merged = batch[0].delta
	} else {
		for _, p := range batch {
			merged.Ops = append(merged.Ops, p.delta.Ops...)
		}
	}
	for {
		cur, ok := s.Get(name)
		if !ok {
			for _, p := range batch {
				p.finish(nil, nil, ErrNotFound)
			}
			return
		}
		child, res, err := cur.DB.ApplyChanges(merged)
		if err == nil && child != cur.DB {
			err = modeCViolation(res.Changes)
		}
		if err != nil {
			if len(batch) > 1 {
				// Attribute the failure: commit each delta on its own.
				for _, p := range batch {
					s.commitBatch(name, []*pendingDelta{p})
				}
				return
			}
			batch[0].finish(nil, nil, err)
			return
		}
		if child == cur.DB {
			// No net change: nothing to journal or publish.
			for _, p := range batch {
				p.finish(cur, res, nil)
			}
			return
		}
		snap, ok := s.publishDelta(cur, child, res, merged)
		if !ok {
			// A full upload (Put) replaced the snapshot while the batch
			// was being applied; retry against the new version.
			continue
		}
		for _, p := range batch {
			p.finish(snap, res, nil)
		}
		return
	}
}

// publishDelta swaps the child in as the next version of cur's name,
// journaling first. ok is false when cur is no longer the current
// snapshot (the batch must retry). The WAL append and the map swap
// happen under the store lock, so the journal order is exactly the
// publish order.
func (s *Store) publishDelta(cur *Snapshot, child *db.DB, res *db.ApplyResult, merged db.Delta) (*Snapshot, bool) {
	snap := &Snapshot{
		Name:      cur.Name,
		DB:        child,
		Version:   cur.Version + 1,
		Facts:     child.Len(),
		Blocks:    child.NumBlocks(),
		Relations: child.Relations(),
		LoadedAt:  time.Now(),
		stats:     cur.stats,
	}
	// The child needs no index build of its own: Apply already
	// respliced the parent's columnar view into it, so the eval index
	// publishes eagerly and the first read after the write skips the
	// cold-start path entirely.
	snap.index.Store(match.NewIndex(child))

	s.mu.Lock()
	if s.dbs[cur.Name] != cur {
		s.mu.Unlock()
		return nil, false
	}
	if err := faultinject.Fire("store.wal.append"); err != nil {
		s.mu.Unlock()
		panic(fmt.Errorf("store: wal append: %w", err))
	}
	if s.wal != nil {
		if err := s.wal.Append(deltaRecord(cur.Name, snap.Version, merged)); err != nil {
			s.mu.Unlock()
			panic(fmt.Errorf("store: wal append: %w", err))
		}
	}
	// Chaos hook: a fault here simulates the process dying after the
	// journal append but before the publish — the window redo logging
	// exists for. Replay applies the journaled delta on boot.
	if err := faultinject.Fire("store.commit"); err != nil {
		s.mu.Unlock()
		panic(fmt.Errorf("store: commit: %w", err))
	}
	// Derive the partition before the swap so the first routed read of
	// the new version reuses the parent's span lists instead of
	// re-partitioning the snapshot.
	if pp := cur.partition.Load(); pp != nil {
		snap.partition.Store(pp.Derive(child, res.Changes))
	}
	s.dbs[cur.Name] = snap
	s.mu.Unlock()
	return snap, true
}

// modeCViolation checks the blocks the change set added or modified for
// a mode-c primary-key violation — the delta analogue of PutFacts'
// whole-database legality check, in O(delta).
func modeCViolation(ch *db.ChangeSet) error {
	for name, rc := range ch.Rels {
		for _, blks := range [2][]db.Block{rc.Added, rc.Modified} {
			for _, b := range blks {
				if len(b.Facts) > 1 && b.Facts[0].Rel.Mode == schema.ModeC {
					return fmt.Errorf("store: delta makes mode-c relation %q violate its primary key", name)
				}
			}
		}
	}
	return nil
}

// SetWAL attaches the journal: every subsequent Put, ApplyDelta, and
// Delete appends a record before publishing. Attach after ReplayWAL so
// recovery does not re-journal what it replays. A WAL append failure
// panics — the store cannot honor its durability contract, and the
// serving layer's recovery middleware turns the panic into a 500.
func (s *Store) SetWAL(l *wal.Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = l
}

// WALStats reports the attached journal's size counters; ok is false
// when the store runs without durability.
func (s *Store) WALStats() (wal.Stats, bool) {
	s.mu.RLock()
	l := s.wal
	s.mu.RUnlock()
	if l == nil {
		return wal.Stats{}, false
	}
	return l.Stats(), true
}

// ReplayWAL rebuilds the store's state from the journal in dir,
// returning the number of records applied. Replay drives the ordinary
// mutation paths, so the rebuilt version chain is exactly the chain the
// crashed process had published (verified against each record's
// journaled version). Call before SetWAL.
func (s *Store) ReplayWAL(dir string) (int, error) {
	return wal.Replay(dir, func(r wal.Record) error {
		switch r.Op {
		case "put":
			d, err := db.ParseFacts(nil, strings.Join(r.Facts, "\n"))
			if err != nil {
				return err
			}
			snap := s.Put(r.Name, d)
			if r.Version != 0 && snap.Version != r.Version {
				return fmt.Errorf("store: replay of %q reached version %d, journal says %d",
					r.Name, snap.Version, r.Version)
			}
		case "apply":
			delta, err := decodeDelta(r.Ops)
			if err != nil {
				return err
			}
			snap, _, err := s.ApplyDelta(r.Name, delta)
			if err != nil {
				return err
			}
			if r.Version != 0 && snap.Version != r.Version {
				return fmt.Errorf("store: replay of %q reached version %d, journal says %d",
					r.Name, snap.Version, r.Version)
			}
		case "delete":
			s.Delete(r.Name)
		default:
			return fmt.Errorf("store: unknown journal op %q", r.Op)
		}
		return nil
	})
}

// deltaRecord renders a delta as a journal record; facts round-trip
// through their String form.
func deltaRecord(name string, version uint64, delta db.Delta) wal.Record {
	r := wal.Record{Op: "apply", Name: name, Version: version, Ops: make([]wal.OpRec, len(delta.Ops))}
	for i, op := range delta.Ops {
		switch op.Kind {
		case db.OpInsert:
			r.Ops[i] = wal.OpRec{K: "i", F: op.Fact.String()}
		case db.OpDelete:
			r.Ops[i] = wal.OpRec{K: "d", F: op.Fact.String()}
		case db.OpUpsert:
			b := make([]string, len(op.Block))
			for j, f := range op.Block {
				b[j] = f.String()
			}
			r.Ops[i] = wal.OpRec{K: "u", B: b}
		}
	}
	return r
}

// decodeDelta parses a journaled operation list back into a delta.
func decodeDelta(ops []wal.OpRec) (db.Delta, error) {
	var delta db.Delta
	for _, op := range ops {
		switch op.K {
		case "i", "d":
			f, err := db.ParseFact(nil, op.F)
			if err != nil {
				return db.Delta{}, err
			}
			if op.K == "i" {
				delta.Insert(f)
			} else {
				delta.Delete(f)
			}
		case "u":
			fs := make([]db.Fact, len(op.B))
			for j, line := range op.B {
				f, err := db.ParseFact(nil, line)
				if err != nil {
					return db.Delta{}, err
				}
				fs[j] = f
			}
			delta.UpsertBlock(fs)
		default:
			return db.Delta{}, fmt.Errorf("store: unknown journal op kind %q", op.K)
		}
	}
	return delta, nil
}
