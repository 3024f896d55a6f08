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

// TestSnapshotCursorSeeks pins what the cursor saves, as counts of
// store.table_seeks: reads of ascending keys through one Snapshot binary-
// search each table's index once and then step from block to block; reads
// of descending keys search it once per block; a DB read, whose cursor
// lives for that read alone, searches it every time. Every read returns
// what DB.Get does.
func TestSnapshotCursorSeeks(t *testing.T) {
	reg := telemetry.NewRegistry()
	db, keys := coldDB(t, 1024, reg)
	n := len(keys)
	db.mu.Lock()
	v := db.current
	db.mu.Unlock()
	tables, blocks := 0, 0
	for _, level := range v.levels {
		for _, tm := range level {
			ct, err := db.tcache.acquire(tm.fileNum)
			if err != nil {
				t.Fatal(err)
			}
			tables++
			blocks += ct.reader.index.numRestarts()
			db.tcache.release(ct)
		}
	}

	seeks := reg.Counter("store.table_seeks")
	count := func(read func(key []byte) []byte, order func(i int) int) uint64 {
		t.Helper()
		before := seeks.Value()
		for i := 0; i < n; i++ {
			k := keys[order(i)]
			want, err := db.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if got := read(k); !bytes.Equal(got, want) {
				t.Fatalf("read of %s = %x, DB.Get = %x", k, got, want)
			}
		}
		return seeks.Value() - before - uint64(n) // the DB.Gets' own
	}
	ascending := func(i int) int { return i }
	descending := func(i int) int { return n - 1 - i }
	var snap Snapshot
	db.Pin(&snap)
	defer snap.Release()
	viaSnap := func(key []byte) []byte {
		v, _, err := snap.GetInto(nil, key)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	viaDB := func(key []byte) []byte {
		v, _, err := db.GetInto(nil, key)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := count(viaSnap, ascending); got != uint64(tables) {
		t.Errorf("ascending reads through a snapshot: %d index seeks, want %d (one per table)", got, tables)
	}
	// The first descending key lies in the block the ascending pass ended in.
	if got := count(viaSnap, descending); got != uint64(blocks-1) {
		t.Errorf("descending reads through a snapshot: %d index seeks, want %d (one per block but the first)", got, blocks-1)
	}
	if got := count(viaDB, ascending); got != uint64(n) {
		t.Errorf("ascending DB reads: %d index seeks, want %d (one per read)", got, n)
	}
	t.Logf("%d keys in %d tables of %d blocks", n, tables, blocks)
}

// TestSnapshotReadsOnWhileCompactionRetiresItsTable holds a snapshot whose
// cursor stands in an L1 table and reads on through it — ascending, then
// descending — while flushes and compactions retire that table from the
// current version and fresh snapshots come and go. The table must stay
// mapped and on disk while the snapshot holds its version, and go — file
// and mapping — when it is released. Run under -race.
func TestSnapshotReadsOnWhileCompactionRetiresItsTable(t *testing.T) {
	db, dir := openTestDB(t, testOptions())
	const nKeys = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("held-%03d", i)) }
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
	// round reports the value's round, or -1 if its bytes are mixed — as
	// they would be read from an unmapped or reused page.
	round := func(v []byte) int {
		if len(v) != 64 || bytes.Count(v, v[:1]) != 64 {
			return -1
		}
		return int(v[0])
	}
	write(1) // overlaps nothing: one table in L1

	held := db.GetSnapshot()
	if v, err := held.Get(key(0)); err != nil || round(v) != 1 {
		t.Fatalf("held snapshot: %x, %v", v, err)
	}
	cursorTable, ct := held.rs.cur.fileNum, held.rs.cur.ct
	if ct == nil {
		t.Fatal("the held snapshot's cursor holds no table")
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for pass := 0; ; pass++ {
			select {
			case <-done:
				return
			default:
			}
			for i := 0; i < nKeys; i++ {
				k := key(i)
				if pass%2 == 1 {
					k = key(nKeys - 1 - i)
				}
				if v, err := held.Get(k); err != nil || round(v) != 1 {
					t.Errorf("held snapshot, pass %d, %s = %x, %v", pass, k, v, err)
					return
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		var s Snapshot
		for n := 0; ; n++ {
			select {
			case <-done:
				return
			default:
			}
			db.Pin(&s)
			for i := n % 7; i < nKeys; i += 7 {
				if v, err := s.Get(key(i)); err != nil || round(v) < 1 {
					t.Errorf("fresh snapshot: %s = %x, %v", key(i), v, err)
				}
			}
			s.Release()
		}
	}()
	for r := 2; r < 20; r++ {
		write(r)
	}
	if err := db.CompactNow(); err != nil {
		t.Error(err)
	}
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}

	db.mu.Lock()
	for _, tables := range db.current.levels {
		for _, tm := range tables {
			if tm.fileNum == cursorTable {
				t.Errorf("table %d is still current: nothing retired it", cursorTable)
			}
		}
	}
	db.mu.Unlock()
	if _, err := os.Stat(tablePath(dir, cursorTable)); err != nil {
		t.Fatalf("the held snapshot's table went while it was pinned: %v", err)
	}
	held.Release()
	if _, err := os.Stat(tablePath(dir, cursorTable)); !os.IsNotExist(err) {
		t.Errorf("table %d is still on disk after its last snapshot let go (err=%v)", cursorTable, err)
	}
	db.tcache.mu.Lock()
	refs := ct.refs
	db.tcache.mu.Unlock()
	if refs != 0 {
		t.Errorf("table %d has %d references after Release: it stays mapped", cursorTable, refs)
	}
}

// TestReleaseAfterClose releases snapshots after DB.Close — one whose
// cursor holds a table, one that never read — and checks that the table is
// unmapped and the version reference dropped: nothing faults, nothing
// leaks, and a read in between reports ErrClosed.
func TestReleaseAfterClose(t *testing.T) {
	db, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), "v")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	read, idle := db.GetSnapshot(), db.GetSnapshot()
	if _, err := read.Get([]byte("k042")); err != nil {
		t.Fatal(err)
	}
	ct, v := read.rs.cur.ct, read.v
	if ct == nil {
		t.Fatal("the snapshot's cursor holds no table")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := read.Get([]byte("k043")); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after Close: %v, want ErrClosed", err)
	}
	read.Release()
	idle.Release()
	read.Release() // idempotent
	db.tcache.mu.Lock()
	refs := ct.refs
	db.tcache.mu.Unlock()
	if refs != 0 {
		t.Errorf("the cursor's table has %d references after Close and Release: it stays mapped", refs)
	}
	if n := v.refs.Load(); n != 1 {
		t.Errorf("the pinned version has %d references after Release, want 1 (the DB's own)", n)
	}
}

// BenchmarkSnapshotRun is the shape of an uncached get_timeline on a
// flushed and compacted DB: pin a snapshot, read 41 adjacent keys in
// ascending order through it, release it. It must report 0 allocs/op.
func BenchmarkSnapshotRun(b *testing.B) {
	db, keys := coldDB(b, 4096, nil)
	const run = 41
	buf := make([]byte, 0, 256)
	var snap Snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i * run * 7) % (len(keys) - run)
		db.Pin(&snap)
		for _, k := range keys[start : start+run] {
			var err error
			if buf, _, err = snap.GetInto(buf[:0], k); err != nil {
				b.Fatal(err)
			}
		}
		snap.Release()
	}
}
