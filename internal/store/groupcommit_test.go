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

// TestBatchAppend covers the frame-merge primitive backups use to collapse
// a coalesced replication frame into one commit.
func TestBatchAppend(t *testing.T) {
	a := NewBatch()
	a.Put([]byte("k1"), []byte("v1"))
	b := NewBatch()
	b.Put([]byte("k2"), []byte("v2"))
	b.Delete([]byte("k1"))
	a.Append(b)
	if a.Len() != 3 {
		t.Fatalf("merged Len = %d, want 3", a.Len())
	}
	db, _ := openTestDB(t, testOptions())
	if err := db.Write(a); err != nil {
		t.Fatalf("Write merged: %v", err)
	}
	if v, err := db.Get([]byte("k2")); err != nil || string(v) != "v2" {
		t.Fatalf("k2 = %q, %v", v, err)
	}
	if _, err := db.Get([]byte("k1")); err != ErrNotFound {
		t.Fatalf("k1 after delete: err = %v, want ErrNotFound", err)
	}
}
