package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
)

// TestModelRandomOps drives the DB with a long random workload and checks
// it against an in-memory model after every phase: point reads, full
// iteration, snapshot reads, across flushes, compactions and reopens.
func TestModelRandomOps(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()

	rng := rand.New(rand.NewSource(20260705))
	model := make(map[string]string)
	keyspace := func() string { return fmt.Sprintf("key%04d", rng.Intn(400)) }

	type snapPair struct {
		snap  *Snapshot
		model map[string]string
	}
	var snaps []snapPair

	checkAll := func(stage string) {
		t.Helper()
		// Point reads.
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("key%04d", i)
			got, err := db.Get([]byte(k))
			want, ok := model[k]
			if ok {
				if err != nil || string(got) != want {
					t.Fatalf("%s: Get(%s) = %q,%v want %q", stage, k, got, err, want)
				}
			} else if err != ErrNotFound {
				t.Fatalf("%s: Get(%s) = %q,%v want ErrNotFound", stage, k, got, err)
			}
		}
		// Ordered iteration matches the sorted model.
		it, err := db.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		var gotKeys []string
		for it.SeekToFirst(); it.Valid(); it.Next() {
			gotKeys = append(gotKeys, string(it.Key()))
			if model[string(it.Key())] != string(it.Value()) {
				t.Fatalf("%s: iter %q = %q want %q", stage, it.Key(), it.Value(), model[string(it.Key())])
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		wantKeys := make([]string, 0, len(model))
		for k := range model {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		if len(gotKeys) != len(wantKeys) {
			t.Fatalf("%s: iterated %d keys want %d", stage, len(gotKeys), len(wantKeys))
		}
		for i := range wantKeys {
			if gotKeys[i] != wantKeys[i] {
				t.Fatalf("%s: key order diverges at %d: %q vs %q", stage, i, gotKeys[i], wantKeys[i])
			}
		}
		// Snapshot reads see their frozen model, whatever order the keys
		// come in: each snapshot's cursor resumes, steps to the next block
		// or seeks the index across the flushes and compactions of every
		// stage it outlives.
		ascending, descending := make([]int, 400), make([]int, 400)
		for i := range ascending {
			ascending[i], descending[i] = i, 399-i
		}
		orders := []struct {
			name string
			keys []int
		}{{"ascending", ascending}, {"descending", descending}, {"shuffled", rng.Perm(400)}}
		for si, sp := range snaps {
			for _, order := range orders {
				for _, i := range order.keys {
					k := fmt.Sprintf("key%04d", i)
					got, err := sp.snap.Get([]byte(k))
					want, ok := sp.model[k]
					if ok && (err != nil || string(got) != want) {
						t.Fatalf("%s: snap %d, %s, Get(%s) = %q,%v want %q", stage, si, order.name, k, got, err, want)
					}
					if !ok && err != ErrNotFound {
						t.Fatalf("%s: snap %d, %s, Get(%s) err = %v", stage, si, order.name, k, err)
					}
				}
			}
		}
	}

	for phase := 0; phase < 6; phase++ {
		for op := 0; op < 1500; op++ {
			switch rng.Intn(10) {
			case 0, 1: // delete
				k := keyspace()
				delete(model, k)
				if err := db.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
			case 2: // batch of puts+deletes
				b := NewBatch()
				for i := 0; i < rng.Intn(8)+1; i++ {
					k := keyspace()
					if rng.Intn(4) == 0 {
						delete(model, k)
						b.Delete([]byte(k))
					} else {
						v := fmt.Sprintf("batch%d-%d", phase, op)
						model[k] = v
						b.Put([]byte(k), []byte(v))
					}
				}
				if err := db.Write(b); err != nil {
					t.Fatal(err)
				}
			default: // put
				k := keyspace()
				v := fmt.Sprintf("val%d-%d-%d", phase, op, rng.Int31())
				model[k] = v
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Pin a snapshot of the current state for later validation.
		mcopy := make(map[string]string, len(model))
		for k, v := range model {
			mcopy[k] = v
		}
		snaps = append(snaps, snapPair{snap: db.GetSnapshot(), model: mcopy})

		switch phase % 3 {
		case 0:
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := db.CompactNow(); err != nil {
				t.Fatal(err)
			}
		case 2:
			// What a reopen must recover is first checked live.
			checkAll(fmt.Sprintf("phase %d, before the reopen", phase))
			// Reopen: snapshots cannot survive a reopen; drop them.
			for _, sp := range snaps {
				sp.snap.Release()
			}
			snaps = nil
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
		}
		checkAll(fmt.Sprintf("phase %d", phase))
	}
	for _, sp := range snaps {
		sp.snap.Release()
	}
}

// TestIteratorStableUnderConcurrentWrites verifies an iterator observes a
// frozen view while writers and compaction churn underneath it.
func TestIteratorStableUnderConcurrentWrites(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	const n = 500
	for i := 0; i < n; i++ {
		mustPut(t, db, fmt.Sprintf("stable%04d", i), "v0")
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 3; round++ {
			for i := 0; i < n; i++ {
				db.Put([]byte(fmt.Sprintf("stable%04d", i)), []byte(fmt.Sprintf("v%d", round+1)))
			}
			db.Flush()
		}
	}()

	count := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Value(), []byte("v0")) {
			t.Fatalf("iterator saw concurrent write: %q = %q", it.Key(), it.Value())
		}
		count++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("iterated %d keys, want %d", count, n)
	}
	<-done
}

// TestCompactionReclaimsTombstones checks that deleted keys eventually
// disappear from the bottom of the tree rather than accumulating.
func TestCompactionReclaimsTombstones(t *testing.T) {
	opts := testOptions()
	db, _ := openTestDB(t, opts)
	// Write then delete everything, forcing flushes along the way.
	for i := 0; i < 2000; i++ {
		mustPut(t, db, fmt.Sprintf("tomb%05d", i), string(bytes.Repeat([]byte{'x'}, 64)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := db.Delete([]byte(fmt.Sprintf("tomb%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := db.CompactNow(); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		t.Fatalf("live key %q after full deletion", it.Key())
	}
}

// TestWriteStallRecovers fills the memtable faster than flushes drain and
// verifies writes still complete (backpressure, not failure).
func TestWriteStallRecovers(t *testing.T) {
	opts := testOptions()
	opts.memtableBytes = 8 << 10
	opts.l0CompactionTrigger = 2 // writes stall at 6 L0 tables
	db, _ := openTestDB(t, opts)
	payload := bytes.Repeat([]byte{'p'}, 512)
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("stall%05d", i)), payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	mustGet(t, db, "stall01999", string(payload))
}

// TestCrashConsistencyViaDirectoryCopy models a crash by copying the data
// directory while a writer is running (MANIFEST and CURRENT first — they
// only ever reference fully-synced SSTs — then SSTs, then WALs whose torn
// tails recovery must tolerate) and verifies the copy opens into a
// prefix-consistent state.
func TestCrashConsistencyViaDirectoryCopy(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Monotone counter plus churn keys.
			if err := db.Put([]byte("counter"), []byte(fmt.Sprintf("%08d", i))); err != nil {
				return
			}
			if err := db.Put([]byte(fmt.Sprintf("churn%03d", i%100)), bytes.Repeat([]byte{'c'}, 200)); err != nil {
				return
			}
		}
	}()

	copyDir := func(round int) string {
		// A crash image is the directory at one instant. Holding db.mu
		// keeps the current version installed, and compaction unlinks a
		// table only after installing a version without it, so every table
		// the copied manifest names is still on disk when the copy reaches
		// it.
		db.mu.Lock()
		defer db.mu.Unlock()
		dst := t.TempDir()
		// Phase 1: metadata.
		for _, name := range []string{"CURRENT", "MANIFEST"} {
			if data, err := os.ReadFile(dir + "/" + name); err == nil {
				os.WriteFile(dst+"/"+name, data, 0o644)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Phase 2: SSTs, Phase 3: WALs.
		for _, suffix := range []string{".sst", ".log"} {
			for _, e := range entries {
				if len(e.Name()) > 4 && e.Name()[len(e.Name())-4:] == suffix {
					if data, err := os.ReadFile(dir + "/" + e.Name()); err == nil {
						os.WriteFile(dst+"/"+e.Name(), data, 0o644)
					}
				}
			}
		}
		return dst
	}

	for round := 0; round < 5; round++ {
		// Let the writer make progress, then "crash".
		for i := 0; i < 2000; i++ {
			if _, err := db.Get([]byte("counter")); err == nil {
				break
			}
		}
		snapshotDir := copyDir(round)
		crashed, err := Open(snapshotDir, opts)
		if err != nil {
			t.Fatalf("round %d: crash image failed to open: %v", round, err)
		}
		// Everything readable must be intact; iteration must not error.
		it, err := crashed.NewIterator()
		if err != nil {
			t.Fatal(err)
		}
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if len(it.Key()) == 0 {
				t.Fatalf("round %d: empty key in crash image", round)
			}
		}
		if err := it.Error(); err != nil {
			t.Fatalf("round %d: iteration error: %v", round, err)
		}
		it.Close()
		if v, err := crashed.Get([]byte("counter")); err == nil && len(v) != 8 {
			t.Fatalf("round %d: torn counter value %q", round, v)
		}
		crashed.Close()
	}
	close(stop)
	<-writerDone
}
