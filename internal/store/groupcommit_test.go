package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/telemetry"
)

// writeConcurrently runs writers goroutines, each committing perWriter
// single-key batches through db.Write, and fails the test on any error.
func writeConcurrently(t *testing.T, db *DB, writers, perWriter int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				b := NewBatch()
				b.Put([]byte(fmt.Sprintf("w%02d-k%04d", w, i)), []byte(fmt.Sprintf("v%d-%d", w, i)))
				if err := db.Write(b); err != nil {
					t.Errorf("writer %d: Write: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGroupCommitConcurrentDurability is the write-path durability
// contract: with SyncWrites on and many concurrent committers forming
// write groups, every batch that was acknowledged before Close must be
// readable after reopening the database from disk.
func TestGroupCommitConcurrentDurability(t *testing.T) {
	const writers, perWriter = 8, 40
	dir := t.TempDir()
	opts := testOptions()
	opts.SyncWrites = true
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeConcurrently(t, db, writers, perWriter)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db, err = Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := fmt.Sprintf("w%02d-k%04d", w, i)
			v, err := db.Get([]byte(k))
			if err != nil {
				t.Fatalf("after reopen: Get(%q): %v", k, err)
			}
			if want := fmt.Sprintf("v%d-%d", w, i); string(v) != want {
				t.Fatalf("after reopen: %q = %q, want %q", k, v, want)
			}
		}
	}
}

// TestGroupCommitAmortizesFsyncs checks the whole point of group commit:
// under at least 8 concurrent writers with SyncWrites on, the number of
// WAL fsyncs must be strictly smaller than the number of committed
// batches, and the wal.group_size histogram must have seen a multi-member
// group.
func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	const writers, perWriter = 8, 60
	reg := telemetry.NewRegistry()
	opts := testOptions()
	opts.SyncWrites = true
	opts.Metrics = reg
	dir := t.TempDir()
	// Stretch every WAL sync with an injected delay so the leader's fsync
	// reliably outlasts the other writers' enqueue. Without it, on a fast
	// disk (or a loaded single-core box that timeslices the writers in big
	// serial chunks) commits can stay perfectly interleaved and no group
	// ever forms, making the amortization assertion below flaky.
	fault.Reset()
	fault.Add(fault.Rule{Site: fault.SiteWALSync, To: dir, Action: fault.Delay, Delay: time.Millisecond})
	defer fault.Reset()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	writeConcurrently(t, db, writers, perWriter)

	commits := reg.Counter("store.writes").Value()
	syncs := reg.Counter("store.wal_syncs").Value()
	if commits != writers*perWriter {
		t.Fatalf("store.writes = %d, want %d", commits, writers*perWriter)
	}
	if syncs == 0 {
		t.Fatalf("store.wal_syncs = 0 with SyncWrites on")
	}
	if syncs >= commits {
		t.Fatalf("no fsync amortization: %d syncs for %d commits", syncs, commits)
	}
	if max := reg.Histogram("wal.group_size").Data().MaxUs; max < 2 {
		t.Fatalf("wal.group_size max = %v, want a multi-member group", max)
	}
}

// TestWriteSeveralBatchesAsOneWriter covers what a backup does with one
// replication frame: its write-sets, passed to one Write, are logged as one
// record each, in order, under one WAL append and one fsync.
func TestWriteSeveralBatchesAsOneWriter(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := testOptions()
	opts.SyncWrites = true
	opts.Metrics = reg
	db, dir := openTestDB(t, opts)
	a := NewBatch()
	a.Put([]byte("k1"), []byte("v1"))
	b := NewBatch()
	b.Put([]byte("k2"), []byte("v2"))
	b.Delete([]byte("k1"))
	if err := db.Write(a, NewBatch(), b); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if a.Seq() == 0 || b.Seq() != a.Seq()+1 {
		t.Fatalf("sequences %d, %d: want consecutive batches", a.Seq(), b.Seq())
	}
	if w, s := reg.Counter("store.writes").Value(), reg.Counter("store.wal_syncs").Value(); w != 1 || s != 1 {
		t.Fatalf("store.writes = %d, store.wal_syncs = %d; want 1, 1", w, s)
	}
	check := func(db *DB) {
		t.Helper()
		if v, err := db.Get([]byte("k2")); err != nil || string(v) != "v2" {
			t.Fatalf("k2 = %q, %v", v, err)
		}
		if _, err := db.Get([]byte("k1")); err != ErrNotFound {
			t.Fatalf("k1 after delete: err = %v, want ErrNotFound", err)
		}
	}
	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db)
}

// TestFailedSyncUsesUpSequences: a group whose fsync failed has its records
// in the log already, so the next group must not reuse their sequence
// numbers — on replay the unacknowledged put would tie with the acknowledged
// delete after it, and win.
func TestFailedSyncUsesUpSequences(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	opts := testOptions()
	opts.SyncWrites = true
	db, dir := openTestDB(t, opts)
	fault.Add(fault.Rule{Site: fault.SiteWALSync, To: dir, Action: fault.Error, Count: 1})
	if err := db.Put([]byte("k"), []byte("unacked")); err == nil {
		t.Fatal("put acknowledged through a failed sync")
	}
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if v, err := db.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("after reopen k = %q, %v; want the acknowledged delete", v, err)
	}
}

// TestGroupHookHoldsTheQueue pins the group hook's contract: it sees a
// group's marked batches only, as the records the WAL logged, once they are
// durable; no later group forms until it releases the queue; its members
// complete only when it returns; and a member it fails reports a HookError
// while staying applied.
func TestGroupHookHoldsTheQueue(t *testing.T) {
	var entered, released, unblock chan struct{}
	var seen []string
	opts := testOptions()
	opts.OnGroup = func(g *Group) {
		for i := 0; i < g.Len(); i++ {
			var dec Batch
			if err := dec.Decode(g.Record(i)); err != nil || dec.Seq() != g.Batch(i).Seq() {
				t.Errorf("member %d record decodes to seq %d, %v", i, dec.Seq(), err)
			}
			seen = append(seen, fmt.Sprintf("%d@%d", g.Object(i), g.Batch(i).Seq()))
			if g.Object(i) == 2 {
				g.Fail(i, fmt.Errorf("refused"))
			}
		}
		if released != nil {
			close(entered)
			<-released
			g.Release()
			<-unblock
		}
	}
	db, _ := openTestDB(t, opts)
	put := func(object uint64, key string) *Batch {
		b := NewBatch()
		b.Put([]byte(key), []byte("v"))
		b.Replicate(object, telemetry.SpanContext{})
		return b
	}
	plain := NewBatch()
	plain.Put([]byte("plain"), []byte("v"))
	if err := db.Write(plain, put(1, "a")); err != nil {
		t.Fatal(err)
	}
	err := db.Write(put(2, "b"))
	if _, ok := err.(*HookError); !ok || err.Error() != "refused" {
		t.Fatalf("failed member: err = %v, want a HookError", err)
	}
	if v, err := db.Get([]byte("b")); err != nil || string(v) != "v" {
		t.Fatalf("failed member not applied: %q, %v", v, err)
	}
	if got := fmt.Sprint(seen); got != "[1@2 2@3]" {
		t.Fatalf("hook saw %s, want the marked batches only", got)
	}

	entered, released, unblock = make(chan struct{}), make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() { first <- db.Write(put(3, "c")) }()
	<-entered
	second := make(chan error, 1)
	go func() { second <- db.Put([]byte("d"), []byte("v")) }()
	time.Sleep(20 * time.Millisecond)
	if _, err := db.Get([]byte("d")); err != ErrNotFound {
		t.Fatalf("a write committed while the hook held the queue: %v", err)
	}
	close(released)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-first:
		t.Fatalf("member completed before its hook returned: %v", err)
	default:
	}
	close(unblock)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}
