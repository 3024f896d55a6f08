package store

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

// coldDB returns a DB whose n keys sit in tables (none in the memtable).
func coldDB(t *testing.T, n int) (*DB, [][]byte) {
	t.Helper()
	db, _ := openTestDB(t, testOptions())
	keys := make([][]byte, n)
	b := NewBatch()
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("cold-key-%05d", i))
		b.Put(keys[i], bytes.Repeat([]byte{byte(i)}, 100))
	}
	if err := db.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db, keys
}

// TestPointReadAllocs is the store-level allocation guard of the read
// path: with a reused buffer, a point read served from the block cache does
// not allocate, for one hot key or rotating over all of them.
func TestPointReadAllocs(t *testing.T) {
	db, keys := coldDB(t, 1024)
	buf := make([]byte, 0, 256)
	read := func(key []byte) {
		v, present, err := db.GetInto(buf[:0], key)
		if err != nil || !present || len(v) != 100 {
			t.Fatalf("GetInto(%q): len=%d present=%v err=%v", key, len(v), present, err)
		}
	}
	for _, k := range keys { // fill the block cache
		read(k)
	}

	hot := keys[0]
	read(hot)
	// Every read takes its scratch from a pool now, so under the race
	// detector (see raceEnabled) the zero bounds cannot hold.
	if allocs := testing.AllocsPerRun(200, func() { read(hot) }); allocs != 0 && !raceEnabled {
		t.Errorf("hot key: %.1f allocs per GetInto, want 0", allocs)
	}
	visited := 0
	visit := func(v []byte, present bool) { visited += len(v) }
	if allocs := testing.AllocsPerRun(200, func() {
		if err := db.VisitLatest(hot, visit); err != nil {
			t.Fatal(err)
		}
	}); (allocs != 0 && !raceEnabled) || visited == 0 {
		t.Errorf("hot key: %.1f allocs per VisitLatest (visited %d bytes), want 0", allocs, visited)
	}

	_, blockMissesBefore := db.BlockCacheStats()
	next := 0
	const runs = 500
	allocs := testing.AllocsPerRun(runs, func() {
		next = (next + 1) % len(keys)
		read(keys[next])
	})
	_, blockMissesAfter := db.BlockCacheStats()
	if blockMissesAfter != blockMissesBefore {
		t.Fatalf("%d block-cache misses: reads went to disk", blockMissesAfter-blockMissesBefore)
	}
	if allocs > 1 && !raceEnabled {
		t.Errorf("rotating reads from the block cache: %.1f allocs per GetInto, want <= 1", allocs)
	}
	t.Logf("rotating reads from the block cache: %.1f allocs per GetInto", allocs)
}

// TestCompactionKeepsTablesOfPinnedVersion is the regression test for the
// unlink race: a read captures the current version, a compaction installs
// the next one, and the read then opens its tables by file number. The
// inputs must stay on disk until the last reader of the old version is
// done, and go away right then.
func TestCompactionKeepsTablesOfPinnedVersion(t *testing.T) {
	db, dir := openTestDB(t, testOptions())
	flushRound := func(round int) {
		for i := 0; i < 50; i++ {
			mustPut(t, db, fmt.Sprintf("key-%03d", i), fmt.Sprintf("round-%d", round))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	flushRound(0)
	flushRound(1)

	// What a point read and an iterator capture before the compaction.
	db.mu.Lock()
	old := db.current
	old.refs.Add(1)
	seq := db.lastSeq
	db.mu.Unlock()
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	var oldFiles []uint64
	for _, tm := range old.levels[0] {
		oldFiles = append(oldFiles, tm.fileNum)
	}
	if len(oldFiles) != 2 {
		t.Fatalf("captured %d L0 tables, want 2", len(oldFiles))
	}

	flushRound(2)
	flushRound(3) // fourth L0 table: triggers the compaction into L1
	if err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if n := db.TableCount(); n[0] != 0 || n[1] == 0 {
		t.Fatalf("tables per level after compaction = %v, want L0 empty", n)
	}
	for _, num := range oldFiles {
		if _, err := os.Stat(tablePath(dir, num)); err != nil {
			t.Fatalf("input table of a pinned version was unlinked: %v", err)
		}
		// Drop the cached reader so the reads below re-open the file by
		// number, as a reader that lost the race would.
		db.tcache.evict(num)
	}

	rs := new(readScratch)
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		rs.ikey = makeInternalKey(rs.ikey, key, seq, kindSeek)
		v, present, err := db.search(rs, nil, newMemtable(), nil, old)
		if err != nil || !present || string(v) != "round-1" {
			t.Fatalf("read of %q over the old version = %q present=%v err=%v", key, v, present, err)
		}
	}
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Value()) != "round-1" {
			t.Fatalf("iterator at %q = %q, want round-1", it.Key(), it.Value())
		}
		n++
	}
	if err := it.Close(); err != nil || n != 50 {
		t.Fatalf("iterator over the old version: %d keys, err=%v", n, err)
	}

	db.unref(old) // the last reader leaves: now the inputs go
	for _, num := range oldFiles {
		if _, err := os.Stat(tablePath(dir, num)); !os.IsNotExist(err) {
			t.Fatalf("obsolete table %d still on disk after its last reader left (err=%v)", num, err)
		}
	}
	mustGet(t, db, "key-007", "round-3")
}

// TestGetIntoIsolatedFromWritesAndRecycling runs readers against a
// committing, flushing writer. A value a reader got from GetInto is its own:
// later commits to the same key, and later reads through the same pooled
// scratch, must not show through. Run under -race.
func TestGetIntoIsolatedFromWritesAndRecycling(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	const (
		nKeys    = 32
		valueLen = 64
		rounds   = 200
	)
	key := func(i int) []byte { return []byte(fmt.Sprintf("iso-%02d", i)) }
	// Every byte of a value is its version, so a torn or aliased value
	// shows as mixed bytes.
	write := func(version int) {
		b := NewBatch()
		for i := 0; i < nKeys; i++ {
			b.Put(key(i), bytes.Repeat([]byte{byte(version)}, valueLen))
		}
		if err := db.Write(b); err != nil {
			t.Error(err)
		}
	}
	write(1)

	uniform := func(v []byte) bool {
		return len(v) == valueLen && bytes.Count(v, v[:1]) == valueLen
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var held, other []byte
			last := make([]byte, nKeys)
			for n := r; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				i := n % nKeys
				var present bool
				var err error
				held, present, err = db.GetInto(held[:0], key(i))
				if err != nil || !present || !uniform(held) {
					t.Errorf("reader %d: key %d = %x present=%v err=%v", r, i, held, present, err)
					return
				}
				if held[0] < last[i] {
					t.Errorf("reader %d: key %d went back from version %d to %d", r, i, last[i], held[0])
					return
				}
				last[i] = held[0]
				// More reads recycle the read scratch under the held value.
				version := held[0]
				for j := 1; j <= 3; j++ {
					other, _, err = db.GetInto(other[:0], key((i+7*j)%nKeys))
					if err != nil || !uniform(other) {
						t.Errorf("reader %d: churn read = %x err=%v", r, other, err)
						return
					}
				}
				if !uniform(held) || held[0] != version {
					t.Errorf("reader %d: held value of key %d changed to %x", r, i, held)
					return
				}
			}
		}(r)
	}
	for v := 2; v < 2+rounds; v++ {
		write(v)
		if v%50 == 0 {
			if err := db.Flush(); err != nil {
				t.Error(err)
			}
		}
	}
	close(done)
	readers.Wait()
}
