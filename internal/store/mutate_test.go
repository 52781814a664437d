package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cqa/internal/db"
	"cqa/internal/faultinject"
	"cqa/internal/wal"
)

func mustFact(t *testing.T, line string) db.Fact {
	t.Helper()
	f, err := db.ParseFact(nil, line)
	if err != nil {
		t.Fatalf("ParseFact(%q): %v", line, err)
	}
	return f
}

func TestApplyDeltaBasic(t *testing.T) {
	s := New()
	snap1, err := s.PutFacts("prod", "R(a | 1)\nR(a | 2)\nS(x | y)\n")
	if err != nil {
		t.Fatal(err)
	}
	var delta db.Delta
	delta.Insert(mustFact(t, "R(b | 1)"))
	delta.Delete(mustFact(t, "R(a | 2)"))
	snap2, res, err := s.ApplyDelta("prod", delta)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Version != 2 || snap2.Facts != 3 {
		t.Errorf("version=%d facts=%d", snap2.Version, snap2.Facts)
	}
	if res.Stats.Inserted != 1 || res.Stats.Deleted != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
	// The old snapshot still serves its version.
	if snap1.DB.Len() != 3 || !snap1.DB.Has(mustFact(t, "R(a | 2)")) {
		t.Error("parent snapshot changed")
	}
	cur, ok := s.Get("prod")
	if !ok || cur != snap2 {
		t.Error("store did not publish the child")
	}
	if !cur.DB.Has(mustFact(t, "R(b | 1)")) || cur.DB.Has(mustFact(t, "R(a | 2)")) {
		t.Error("child contents wrong")
	}
}

func TestApplyDeltaNotFound(t *testing.T) {
	s := New()
	var delta db.Delta
	delta.Insert(mustFact(t, "R(a | 1)"))
	if _, _, err := s.ApplyDelta("ghost", delta); err != ErrNotFound {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestApplyDeltaModeCRejected(t *testing.T) {
	s := New()
	if _, err := s.PutFacts("prod", "T#c(a | 1)\n"); err != nil {
		t.Fatal(err)
	}
	var delta db.Delta
	delta.Insert(mustFact(t, "T#c(a | 2)"))
	if _, _, err := s.ApplyDelta("prod", delta); err == nil {
		t.Fatal("mode-c violation accepted")
	}
	snap, _ := s.Get("prod")
	if snap.Version != 1 || snap.DB.Len() != 1 {
		t.Error("rejected delta still published")
	}
}

func TestApplyDeltaNoNetChange(t *testing.T) {
	s := New()
	snap1, err := s.PutFacts("prod", "R(a | 1)\n")
	if err != nil {
		t.Fatal(err)
	}
	var delta db.Delta
	delta.Insert(mustFact(t, "R(a | 1)")) // duplicate
	snap2, res, err := s.ApplyDelta("prod", delta)
	if err != nil {
		t.Fatal(err)
	}
	if snap2 != snap1 {
		t.Error("no-net-change delta published a new version")
	}
	if res.Stats.Noops != 1 {
		t.Errorf("noops = %d", res.Stats.Noops)
	}
}

// TestApplyDeltaGroupCommit queues writers behind a held mutator and
// releases them as one batch: every waiter must land in the same
// published version.
func TestApplyDeltaGroupCommit(t *testing.T) {
	s := New()
	if _, err := s.PutFacts("prod", "R(seed | 0)\n"); err != nil {
		t.Fatal(err)
	}
	m := s.mutatorFor("prod")
	m.mu.Lock()
	m.busy = true // park arrivals in the queue
	m.mu.Unlock()

	const writers = 3
	snaps := make([]*Snapshot, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var delta db.Delta
			delta.Insert(mustFact(t, fmt.Sprintf("R(w%d | 1)", i)))
			snap, _, err := s.ApplyDelta("prod", delta)
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
			snaps[i] = snap
		}(i)
	}
	for {
		m.mu.Lock()
		n := len(m.queue)
		m.mu.Unlock()
		if n == writers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Release: the next arrival becomes the leader and commits the whole
	// queue as one batch.
	m.mu.Lock()
	m.busy = false
	m.mu.Unlock()
	var last db.Delta
	last.Insert(mustFact(t, "R(last | 1)"))
	lastSnap, _, err := s.ApplyDelta("prod", last)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, snap := range snaps {
		if snap != lastSnap {
			t.Errorf("writer %d published separately: v%d vs v%d", i, snap.Version, lastSnap.Version)
		}
	}
	if lastSnap.Version != 2 {
		t.Errorf("batch took %d versions, want 1 swap", lastSnap.Version-1)
	}
	if lastSnap.DB.Len() != 1+writers+1 {
		t.Errorf("facts = %d", lastSnap.DB.Len())
	}
}

// TestApplyDeltaBatchFallback checks that bad deltas in a merged batch
// fail alone while their batchmates commit: a mode-c violation, and a
// fact giving relation R a second signature.
func TestApplyDeltaBatchFallback(t *testing.T) {
	s := New()
	if _, err := s.PutFacts("prod", "T#c(a | 1)\nR(x | 1)\n"); err != nil {
		t.Fatal(err)
	}
	m := s.mutatorFor("prod")
	m.mu.Lock()
	m.busy = true
	m.mu.Unlock()
	badFacts := []string{
		"T#c(a | 2)",     // mode-c violation
		"R(q, r, s | t)", // R is stored as R[2,1]
	}
	errs := make(chan error, len(badFacts))
	var wg sync.WaitGroup
	for _, line := range badFacts {
		wg.Add(1)
		go func(f db.Fact) {
			defer wg.Done()
			var bad db.Delta
			bad.Insert(f)
			_, _, err := s.ApplyDelta("prod", bad)
			errs <- err
		}(mustFact(t, line))
	}
	for {
		m.mu.Lock()
		n := len(m.queue)
		m.mu.Unlock()
		if n == len(badFacts) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m.mu.Lock()
	m.busy = false
	m.mu.Unlock()
	var good db.Delta
	good.Insert(mustFact(t, "R(y | 1)"))
	snap, _, err := s.ApplyDelta("prod", good)
	wg.Wait()
	if err != nil {
		t.Fatalf("good delta failed with the batch: %v", err)
	}
	for range badFacts {
		if badErr := <-errs; badErr == nil {
			t.Error("bad delta committed")
		}
	}
	if !snap.DB.Has(mustFact(t, "R(y | 1)")) {
		t.Error("fallback lost the good delta")
	}
	for _, line := range badFacts {
		if snap.DB.Has(mustFact(t, line)) {
			t.Errorf("fallback committed %s", line)
		}
	}
}

// TestApplyDeltaFreshRead checks write-then-read freshness: the child
// snapshot publishes with its index already derived, so the first read
// after a write never pays a cold index build.
func TestApplyDeltaFreshRead(t *testing.T) {
	s := New()
	snap1, err := s.PutFacts("prod", "R(a | 1)\nS(x | y)\n")
	if err != nil {
		t.Fatal(err)
	}
	snap1.Index() // warm the parent
	misses := s.IndexStats().Misses()
	var delta db.Delta
	delta.Insert(mustFact(t, "R(b | 2)"))
	snap2, _, err := s.ApplyDelta("prod", delta)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Index() == nil {
		t.Fatal("no index")
	}
	if got := s.IndexStats().Misses(); got != misses {
		t.Errorf("read after write built an index: misses %d -> %d", misses, got)
	}
}

// TestApplyDeltaDerivesPartition checks the partition cached on the
// parent snapshot carries over to the child by Derive, and that a
// parent without one leaves the child to build lazily.
func TestApplyDeltaDerivesPartition(t *testing.T) {
	s := New()
	snap1, err := s.PutFacts("prod", "R(a | 1)\nR(b | 2)\nR(c | 3)\n")
	if err != nil {
		t.Fatal(err)
	}
	p1 := snap1.Partition(3)
	if snap1.Partition(3) != p1 {
		t.Fatal("partition not cached on the snapshot")
	}
	if other := snap1.Partition(2); other == p1 || other.N() != 2 || snap1.Partition(3) != p1 {
		t.Fatal("a second width must get an uncached partition and keep the cached one")
	}
	var delta db.Delta
	delta.Insert(mustFact(t, "R(d | 4)"))
	snap2, _, err := s.ApplyDelta("prod", delta)
	if err != nil {
		t.Fatal(err)
	}
	derived := snap2.partition.Load()
	if derived == nil {
		t.Fatal("child snapshot has no derived partition")
	}
	if snap2.Partition(3) != derived || derived.View(0).DB != snap2.DB {
		t.Fatal("child does not serve its derived partition")
	}
	total := 0
	for id := 0; id < derived.N(); id++ {
		total += derived.View(id).NumBlocks()
	}
	if total != 4 {
		t.Errorf("derived partition covers %d blocks, want 4", total)
	}

	// No partition on the parent: nothing to derive.
	if _, err := s.PutFacts("cold", "R(a | 1)\n"); err != nil {
		t.Fatal(err)
	}
	snap3, _, err := s.ApplyDelta("cold", delta)
	if err != nil {
		t.Fatal(err)
	}
	if snap3.partition.Load() != nil {
		t.Error("child of an unpartitioned parent got a partition")
	}
}

func TestWALReplayRestoresChain(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New()
	s1.SetWAL(l)
	if _, err := s1.PutFacts("prod", "R(a | 1)\nR(a | 2)\n"); err != nil {
		t.Fatal(err)
	}
	var d1 db.Delta
	d1.Insert(mustFact(t, "R(b | 1)"))
	if _, _, err := s1.ApplyDelta("prod", d1); err != nil {
		t.Fatal(err)
	}
	var d2 db.Delta
	d2.Delete(mustFact(t, "R(a | 2)"))
	d2.UpsertBlock([]db.Fact{mustFact(t, "S(x | y)"), mustFact(t, "S(x | z)")})
	if _, _, err := s1.ApplyDelta("prod", d2); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.PutFacts("scratch", "T(q | 1)\n"); err != nil {
		t.Fatal(err)
	}
	s1.Delete("scratch")
	l.Close()

	s2 := New()
	n, err := s2.ReplayWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("replayed %d records, want 5", n)
	}
	snap, ok := s2.Get("prod")
	if !ok {
		t.Fatal("prod missing after replay")
	}
	want, _ := s1.Get("prod")
	if snap.Version != want.Version {
		t.Errorf("version %d, want %d", snap.Version, want.Version)
	}
	if snap.DB.Len() != want.DB.Len() {
		t.Errorf("facts %d, want %d", snap.DB.Len(), want.DB.Len())
	}
	for _, f := range want.DB.Facts() {
		if !snap.DB.Has(f) {
			t.Errorf("replayed store missing %s", f)
		}
	}
	if _, ok := s2.Get("scratch"); ok {
		t.Error("deleted database resurrected")
	}
	if s2.Len() != 1 {
		t.Errorf("store has %d databases, want 1", s2.Len())
	}
}

// TestFactOrderAcrossCopies: a parsed database, its Clone, its WAL
// put/replay copy and an Apply-derived version holding the same facts
// list Facts() identically — relation, then block, then slot order —
// although the upload interleaves relations and blocks.
func TestFactOrderAcrossCopies(t *testing.T) {
	const text = "S(x | 1)\nR(a | 1)\nS(y | 2)\nR(b | 3)\nR(a | 2)\n"
	parsed, err := db.ParseFacts(nil, text)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New()
	s1.SetWAL(l)
	if _, err := s1.PutFacts("prod", text); err != nil {
		t.Fatal(err)
	}
	l.Close()
	s2 := New()
	if _, err := s2.ReplayWAL(dir); err != nil {
		t.Fatal(err)
	}
	replayed, _ := s2.Get("prod")
	base, err := db.ParseFacts(nil, "S(x | 1)\nR(a | 1)\nS(y | 2)\nR(b | 3)\n")
	if err != nil {
		t.Fatal(err)
	}
	var delta db.Delta
	delta.Insert(mustFact(t, "R(a | 2)"))
	derived, err := base.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"S(x | 1)", "S(y | 2)", "R(a | 1)", "R(a | 2)", "R(b | 3)"}
	for name, d := range map[string]*db.DB{
		"parsed": parsed, "clone": parsed.Clone(), "replayed": replayed.DB, "derived": derived,
	} {
		var got []string
		for _, f := range d.Facts() {
			got = append(got, f.String())
		}
		if strings.Join(got, "; ") != strings.Join(want, "; ") {
			t.Errorf("%s Facts() = %v, want %v", name, got, want)
		}
	}
}

// TestWALCrashMidCommit simulates the process dying between the journal
// append and the in-memory publish: the acknowledged-but-unpublished
// delta must reappear on replay (redo semantics), restoring the exact
// version chain.
func TestWALCrashMidCommit(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New()
	s1.SetWAL(l)
	if _, err := s1.PutFacts("prod", "R(a | 1)\n"); err != nil {
		t.Fatal(err)
	}
	var d1 db.Delta
	d1.Insert(mustFact(t, "R(b | 1)"))
	if _, _, err := s1.ApplyDelta("prod", d1); err != nil {
		t.Fatal(err)
	}
	// The crash: the commit hook fires after the WAL append, before the
	// publish.
	faultinject.SetWindow("store.commit", 0, 1, func(int) error {
		return fmt.Errorf("simulated crash")
	})
	var d2 db.Delta
	d2.Insert(mustFact(t, "R(c | 9)"))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("commit fault did not panic")
			}
		}()
		s1.ApplyDelta("prod", d2) //nolint:errcheck // panics
	}()
	// The crashed process never published v3...
	if snap, _ := s1.Get("prod"); snap.Version != 2 {
		t.Fatalf("crashed store at version %d", snap.Version)
	}
	l.Close()
	faultinject.Reset()

	// ...but the journal has it, so recovery redoes it.
	s2 := New()
	if _, err := s2.ReplayWAL(dir); err != nil {
		t.Fatal(err)
	}
	snap, ok := s2.Get("prod")
	if !ok {
		t.Fatal("prod missing after replay")
	}
	if snap.Version != 3 {
		t.Errorf("replayed version %d, want 3 (journaled commit redone)", snap.Version)
	}
	if !snap.DB.Has(mustFact(t, "R(c | 9)")) {
		t.Error("journaled delta lost")
	}
	// Recovery re-attaches the journal and serving continues.
	l2, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	s2.SetWAL(l2)
	var d3 db.Delta
	d3.Insert(mustFact(t, "R(d | 4)"))
	snap4, _, err := s2.ApplyDelta("prod", d3)
	if err != nil {
		t.Fatal(err)
	}
	if snap4.Version != 4 {
		t.Errorf("post-recovery version %d, want 4", snap4.Version)
	}
}

// TestCommitFaultReleasesWriters: a commit that panics (here the
// store.commit hook; a WAL append failure panics the same way) must not
// wedge the name. The delta queued into the faulted batch fails with
// ErrCommitAborted, and a later delta publishes.
func TestCommitFaultReleasesWriters(t *testing.T) {
	defer faultinject.Reset()
	s := New()
	if _, err := s.PutFacts("prod", "R(a | 1)\n"); err != nil {
		t.Fatal(err)
	}
	m := s.mutatorFor("prod")
	m.mu.Lock()
	m.busy = true // park the waiter in the queue
	m.mu.Unlock()
	waiter := make(chan error, 1)
	go func() {
		var delta db.Delta
		delta.Insert(mustFact(t, "R(w | 1)"))
		_, _, err := s.ApplyDelta("prod", delta)
		waiter <- err
	}()
	for {
		m.mu.Lock()
		n := len(m.queue)
		m.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m.mu.Lock()
	m.busy = false
	m.mu.Unlock()
	faultinject.SetWindow("store.commit", 0, 1, func(int) error {
		return fmt.Errorf("simulated commit fault")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("commit fault did not panic")
			}
		}()
		var lead db.Delta
		lead.Insert(mustFact(t, "R(lead | 1)"))
		s.ApplyDelta("prod", lead) //nolint:errcheck // panics
	}()
	select {
	case err := <-waiter:
		if !errors.Is(err, ErrCommitAborted) {
			t.Errorf("queued waiter got %v, want ErrCommitAborted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter still blocked after the faulted commit")
	}
	later := make(chan error, 1)
	go func() {
		var delta db.Delta
		delta.Insert(mustFact(t, "R(later | 1)"))
		_, _, err := s.ApplyDelta("prod", delta)
		later <- err
	}()
	select {
	case err := <-later:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a delta after the faulted commit is still blocked")
	}
	snap, _ := s.Get("prod")
	if snap.Version != 2 || !snap.DB.Has(mustFact(t, "R(later | 1)")) || snap.DB.Has(mustFact(t, "R(w | 1)")) {
		t.Errorf("after the fault: version %d, facts %v", snap.Version, snap.DB)
	}
}

// TestMutationLifecycleRaces hammers one name with concurrent full
// uploads, deltas, deletes, and reads that force index builds and
// partitions, while deltas derive partitions from replaced snapshots.
// Run with -race; the assertions are weak on purpose — the test exists to
// let the race detector watch the snapshot lifecycle under fire.
func TestMutationLifecycleRaces(t *testing.T) {
	s := New()
	if _, err := s.PutFacts("prod", "R(a | 1)\nR(b | 2)\n"); err != nil {
		t.Fatal(err)
	}
	const iters = 150
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // full uploads
		defer wg.Done()
		for i := 0; i < iters; i++ {
			text := fmt.Sprintf("R(a | %d)\nR(u%d | 1)\n", i, i)
			if _, err := s.PutFacts("prod", text); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	}()
	go func() { // deltas
		defer wg.Done()
		for i := 0; i < iters; i++ {
			var delta db.Delta
			delta.Insert(mustFact(t, fmt.Sprintf("R(w%d | 1)", i%7)))
			if i%3 == 0 {
				delta.Delete(mustFact(t, fmt.Sprintf("R(w%d | 1)", (i+1)%7)))
			}
			if _, _, err := s.ApplyDelta("prod", delta); err != nil && err != ErrNotFound {
				t.Errorf("delta: %v", err)
			}
		}
	}()
	go func() { // reads: index builds and partitions
		defer wg.Done()
		for i := 0; i < iters; i++ {
			snap, ok := s.Get("prod")
			if !ok {
				continue
			}
			snap.Index()
			snap.Partition(2).View(1).NumBlocks()
			snap.DB.Blocks()
		}
	}()
	go func() { // deletes and re-creates
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			time.Sleep(time.Millisecond)
			s.Delete("prod")
			if _, err := s.PutFacts("prod", "R(a | 1)\n"); err != nil {
				t.Errorf("recreate: %v", err)
			}
		}
	}()
	wg.Wait()
	// The store must end in a coherent state: one snapshot, readable.
	snap, ok := s.Get("prod")
	if !ok {
		t.Fatal("prod lost")
	}
	if snap.DB.Len() != len(snap.DB.Facts()) {
		t.Error("snapshot fact count inconsistent")
	}
	if !strings.HasPrefix(snap.Relations[0], "R") {
		t.Errorf("relations = %v", snap.Relations)
	}
}
