package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"lambdastore/internal/telemetry"
)

// coldDB returns a DB whose n keys sit in tables below L0 (none in the
// memtable or L0), flushed in four rounds and compacted, with every table open: a
// point read then touches no state but the mapped table. The first flush,
// of the first and last key, goes straight to L1; the four rounds overlap
// it, so they land in L0 and trigger the compaction. reg, if not nil,
// receives the store's instruments.
func coldDB(tb testing.TB, n int, reg *telemetry.Registry) (*DB, [][]byte) {
	tb.Helper()
	opts := testOptions()
	opts.Metrics = reg
	db, _ := openTestDB(tb, opts)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("cold-key-%05d", i))
	}
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	b := NewBatch()
	b.Put(keys[0], value(0))
	b.Put(keys[n-1], value(n-1))
	if err := db.Write(b); err != nil {
		tb.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		b := NewBatch()
		for i := round; i < n; i += 4 {
			b.Put(keys[i], value(i))
		}
		if err := db.Write(b); err != nil {
			tb.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.CompactNow(); err != nil {
		tb.Fatal(err)
	}
	db.mu.Lock()
	v := db.current
	db.mu.Unlock()
	if len(v.levels[0]) != 0 || len(v.levels[1]) == 0 {
		tb.Fatalf("tables per level = %v, want every key below L0", db.TableCount())
	}
	for _, tables := range v.levels {
		for _, t := range tables {
			ct, err := db.tcache.acquire(t.fileNum)
			if err != nil {
				tb.Fatal(err)
			}
			db.tcache.release(ct)
		}
	}
	return db, keys
}

// TestPointReadAllocs is the store-level allocation guard of the read
// path: with a reused buffer, a point read from an open table does not
// allocate — the first read of each block, one hot key, or rotating over
// all of them.
func TestPointReadAllocs(t *testing.T) {
	db, keys := coldDB(t, 1024, nil)
	buf := make([]byte, 0, 256)
	read := func(key []byte) {
		v, present, err := db.GetInto(buf[:0], key)
		if err != nil || !present || len(v) != 100 {
			t.Fatalf("GetInto(%q): len=%d present=%v err=%v", key, len(v), present, err)
		}
	}
	// Every read takes its scratch from a pool, so under the race detector
	// (see raceEnabled) the zero bounds cannot hold.
	next := 0
	if allocs := testing.AllocsPerRun(len(keys)-1, func() {
		read(keys[next])
		next++
	}); allocs != 0 && !raceEnabled {
		t.Errorf("first touch: %.1f allocs per GetInto, want 0", allocs)
	}

	hot := keys[0]
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

	if allocs := testing.AllocsPerRun(500, func() {
		next = (next + 7) % len(keys)
		read(keys[next])
	}); allocs != 0 && !raceEnabled {
		t.Errorf("rotating: %.1f allocs per GetInto, want 0", allocs)
	}
}

// BenchmarkTableGet is a point read of rotating keys from a flushed and
// compacted DB: the cost of one probe of the mapped tables. It must report
// 0 allocs/op.
func BenchmarkTableGet(b *testing.B) {
	db, keys := coldDB(b, 4096, nil)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, _, err = db.GetInto(buf[:0], keys[(i*7)%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTableLifetime races point reads, VisitLatest and full scans against
// flushes and compactions that unlink and unmap tables, then holds an
// iterator across DB.Close and reads on: a table's mapped bytes must outlive
// every reference to them, so nothing here may fault. Run under -race.
func TestTableLifetime(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("life-%03d", i)) }
	// Every byte of a value is its round, so a value read from an unmapped
	// or reused page shows as mixed bytes.
	write := func(round int) {
		b := NewBatch()
		for i := 0; i < nKeys; i++ {
			b.Put(key(i), bytes.Repeat([]byte{byte(round)}, 64))
		}
		if err := db.Write(b); err != nil {
			t.Error(err)
		}
		if err := db.Flush(); err != nil {
			t.Error(err)
		}
	}
	uniform := func(v []byte) bool { return len(v) == 64 && bytes.Count(v, v[:1]) == 64 }
	write(1)

	done := make(chan struct{})
	var readers sync.WaitGroup
	reader := func(read func(n int) error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				if err := read(n); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var held []byte
	reader(func(n int) error {
		v, present, err := db.GetInto(held[:0], key(n%nKeys))
		if err != nil || !present || !uniform(v) {
			return fmt.Errorf("GetInto = %x present=%v err=%v", v, present, err)
		}
		held = v
		return nil
	})
	reader(func(n int) error {
		var bad []byte
		err := db.VisitLatest(key(n%nKeys), func(v []byte, present bool) {
			if !present || !uniform(v) {
				bad = append([]byte(nil), v...)
			}
		})
		if err != nil || bad != nil {
			return fmt.Errorf("VisitLatest saw %x err=%v", bad, err)
		}
		return nil
	})
	reader(func(int) error {
		it, err := db.NewIterator()
		if err != nil {
			return err
		}
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if !uniform(it.Value()) {
				it.Close()
				return fmt.Errorf("scan at %q = %x", it.Key(), it.Value())
			}
			n++
		}
		if err := it.Close(); err != nil || n != nKeys {
			return fmt.Errorf("scan: %d keys, err=%v", n, err)
		}
		return nil
	})
	for round := 2; round < 40; round++ {
		write(round)
	}
	close(done)
	readers.Wait()

	// An iterator held across Close: the tables it holds stay mapped until
	// it lets go, and it reaches no new table once the DB is closed.
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	it.SeekToFirst()
	if !it.Valid() {
		t.Fatalf("iterator over a full DB is empty: %v", it.Error())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; it.Valid(); it.Next() {
		if !uniform(it.Value()) {
			t.Fatalf("after Close: %q = %x", it.Key(), it.Value())
		}
		n++
	}
	if err := it.Close(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("iterator closed after the DB: %v", err)
	}
	t.Logf("read %d of %d keys after Close", n, nKeys)
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
	// The first flush overlaps nothing and goes to L1; the next two
	// overlap it and land in L0.
	flushRound(0)
	flushRound(1)
	flushRound(2)

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

	flushRound(3)
	flushRound(4) // fourth L0 table: triggers the compaction into L1
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
		if err != nil || !present || string(v) != "round-2" {
			t.Fatalf("read of %q over the old version = %q present=%v err=%v", key, v, present, err)
		}
	}
	rs.cur.drop(db.tcache)
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Value()) != "round-2" {
			t.Fatalf("iterator at %q = %q, want round-2", it.Key(), it.Value())
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
	mustGet(t, db, "key-007", "round-4")
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
