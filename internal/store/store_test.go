package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"testing/quick"

	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// testOptions returns small sizes so tests exercise flush and compaction
// paths quickly.
func testOptions() *Options {
	return &Options{memtableBytes: 32 << 10, blockBytes: 1 << 10, levelBaseBytes: 64 << 10, levelMultiplier: 4}
}

func openTestDB(t testing.TB, opts *Options) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db, dir
}

func mustPut(t *testing.T, db *DB, k, v string) {
	t.Helper()
	if err := db.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("Put(%q): %v", k, err)
	}
}

func mustGet(t *testing.T, db *DB, k, want string) {
	t.Helper()
	got, err := db.Get([]byte(k))
	if err != nil {
		t.Fatalf("Get(%q): %v", k, err)
	}
	if string(got) != want {
		t.Fatalf("Get(%q) = %q, want %q", k, got, want)
	}
}

func mustNotFound(t *testing.T, db *DB, k string) {
	t.Helper()
	if _, err := db.Get([]byte(k)); err != ErrNotFound {
		t.Fatalf("Get(%q) err = %v, want ErrNotFound", k, err)
	}
}

func TestPutGetDelete(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	mustNotFound(t, db, "a")
	mustPut(t, db, "a", "1")
	mustGet(t, db, "a", "1")
	mustPut(t, db, "a", "2")
	mustGet(t, db, "a", "2")
	if err := db.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	mustNotFound(t, db, "a")
	mustPut(t, db, "a", "3")
	mustGet(t, db, "a", "3")
}

func TestEmptyValueAndKeyEdgeCases(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	mustPut(t, db, "empty", "")
	mustGet(t, db, "empty", "")
	// Binary keys with zero bytes and 0xff.
	k := string([]byte{0, 1, 0xff, 0})
	mustPut(t, db, k, "bin")
	mustGet(t, db, k, "bin")
}

func TestBatchAtomicVisibility(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	b := NewBatch()
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	b.Delete([]byte("z"))
	if err := db.Write(b); err != nil {
		t.Fatal(err)
	}
	mustGet(t, db, "x", "1")
	mustGet(t, db, "y", "2")
	mustNotFound(t, db, "z")
}

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	b := NewBatch()
	b.Put([]byte("k1"), []byte("v1"))
	b.Delete([]byte("k2"))
	b.Put([]byte(""), []byte(""))
	b.startSeq = 42
	dec := NewBatch()
	if err := dec.Decode(b.Encode()); err != nil {
		t.Fatal(err)
	}
	if dec.startSeq != 42 || dec.count != 3 {
		t.Fatalf("decoded header = (%d,%d)", dec.startSeq, dec.count)
	}
	var ops []string
	dec.ForEach(func(kind byte, key, value []byte) error {
		ops = append(ops, fmt.Sprintf("%d:%s=%s", kind, key, value))
		return nil
	})
	want := []string{"1:k1=v1", "0:k2=", "1:="}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestBatchDecodeCorrupt(t *testing.T) {
	b := NewBatch()
	b.Put([]byte("key"), []byte("value"))
	enc := b.Encode()
	if err := NewBatch().Decode(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated batch decoded without error")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	mustPut(t, db, "k", "old")
	snap := db.GetSnapshot()
	defer snap.Release()
	mustPut(t, db, "k", "new")
	got, err := snap.Get([]byte("k"))
	if err != nil || string(got) != "old" {
		t.Fatalf("snapshot Get = %q,%v want old", got, err)
	}
	mustGet(t, db, "k", "new")

	// Deletion after the snapshot is also invisible to it.
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	got, err = snap.Get([]byte("k"))
	if err != nil || string(got) != "old" {
		t.Fatalf("snapshot Get after delete = %q,%v want old", got, err)
	}
}

func TestFlushAndReadFromSST(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	// A first table spanning the key range overlaps nothing and goes to L1;
	// the flush below overlaps it, so its table lands in L0.
	mustPut(t, db, "key", "lo")
	mustPut(t, db, "key~", "hi")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		mustPut(t, db, fmt.Sprintf("key%04d", i), fmt.Sprintf("val%04d", i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	counts := db.TableCount()
	if counts[0] == 0 {
		t.Fatal("expected at least one L0 table after flush")
	}
	for i := 0; i < n; i++ {
		mustGet(t, db, fmt.Sprintf("key%04d", i), fmt.Sprintf("val%04d", i))
	}
}

// flushKeys writes keys lo..hi-1 with value v and flushes them to one table.
func flushKeys(t *testing.T, db *DB, lo, hi int, v string) {
	t.Helper()
	b := NewBatch()
	for i := lo; i < hi; i++ {
		b.Put([]byte(fmt.Sprintf("place%04d", i)), []byte(v))
	}
	if err := db.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// levelFiles returns the file numbers of each level's tables.
func levelFiles(db *DB) [numLevels][]uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out [numLevels][]uint64
	for l, tables := range db.current.levels {
		for _, tm := range tables {
			out[l] = append(out[l], tm.fileNum)
		}
	}
	return out
}

// TestDisjointFlushLandsInL1: a flushed table that overlaps no table in L0
// or L1 goes straight to L1 — below the existing L1 tables, above them and
// into a gap between them — and no compaction rewrites it.
func TestDisjointFlushLandsInL1(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	for i, r := range [][2]int{{100, 200}, {300, 400}, {0, 50}, {220, 280}} {
		flushKeys(t, db, r[0], r[1], "v")
		if n := db.TableCount(); n[0] != 0 || n[1] != i+1 {
			t.Fatalf("flush of [%d, %d): tables per level = %v, want %d in L1 and none in L0", r[0], r[1], n, i+1)
		}
	}
	if err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if n := db.TableCount(); n[1] != 4 {
		t.Fatalf("tables per level after CompactNow = %v, want the 4 flushed tables in L1", n)
	}
	for _, i := range []int{0, 49, 100, 199, 220, 279, 300, 399} {
		mustGet(t, db, fmt.Sprintf("place%04d", i), "v")
	}
	mustNotFound(t, db, "place0210")
}

// TestOverlappingFlushLandsInL0: a flushed table that overlaps an L1 table,
// or an L0 table, goes to L0, and reads see its newer values.
func TestOverlappingFlushLandsInL0(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	flushKeys(t, db, 100, 200, "old") // L1
	flushKeys(t, db, 150, 160, "new") // overlaps the L1 table
	if n := db.TableCount(); n[0] != 1 || n[1] != 1 {
		t.Fatalf("tables per level = %v, want one in L0 and one in L1", n)
	}
	flushKeys(t, db, 210, 220, "l1")     // overlaps nothing
	flushKeys(t, db, 159, 230, "newer")  // overlaps the L0 table and both L1 tables
	flushKeys(t, db, 225, 240, "newest") // overlaps only the L0 table above
	if n := db.TableCount(); n[0] != 3 || n[1] != 2 {
		t.Fatalf("tables per level = %v, want three in L0 and two in L1", n)
	}
	for k, want := range map[int]string{100: "old", 150: "new", 159: "newer", 205: "newer", 215: "newer", 229: "newest", 239: "newest"} {
		mustGet(t, db, fmt.Sprintf("place%04d", k), want)
	}
}

// TestReopenRecoversL1Flush: the level of a flushed table is in the
// MANIFEST, so a reopen recovers the same tables at the same levels.
func TestReopenRecoversL1Flush(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	flushKeys(t, db, 0, 100, "a")   // L1
	flushKeys(t, db, 200, 300, "b") // L1
	flushKeys(t, db, 50, 60, "c")   // L0
	want := levelFiles(db)
	if len(want[0]) != 1 || len(want[1]) != 2 {
		t.Fatalf("layout before reopen = %v, want one L0 and two L1 tables", want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := levelFiles(db); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("layout after reopen = %v, want %v", got, want)
	}
	for k, v := range map[int]string{0: "a", 55: "c", 99: "a", 250: "b"} {
		mustGet(t, db, fmt.Sprintf("place%04d", k), v)
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete([]byte("k050")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		if i == 50 {
			mustNotFound(t, db2, k)
			continue
		}
		mustGet(t, db2, k, fmt.Sprintf("v%03d", i))
	}
}

func TestRecoveryAfterFlushAndMore(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), bytes.Repeat([]byte{'x'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Post-flush writes live only in the WAL.
	if err := db.Put([]byte("after"), []byte("flush")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	mustGet(t, db2, "after", "flush")
	mustGet(t, db2, "k00999", string(bytes.Repeat([]byte{'x'}, 100)))
}

func TestRepeatedReopen(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	for round := 0; round < 5; round++ {
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < round; i++ {
			mustGet(t, db, fmt.Sprintf("round%d", i), fmt.Sprintf("val%d", i))
		}
		if err := db.Put([]byte(fmt.Sprintf("round%d", round)), []byte(fmt.Sprintf("val%d", round))); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTornWALTailIgnored(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPut := func(k, v string) {
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	mustPut("a", "1")
	mustPut("b", "2")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate the WAL mid-record to simulate a torn write.
	logs, err := fileNums(dir, ".log")
	if err != nil || len(logs) == 0 {
		t.Fatalf("fileNums: %v %v", logs, err)
	}
	path := walPath(dir, logs[len(logs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 3 {
		if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen with torn WAL: %v", err)
	}
	defer db2.Close()
	// "a" must survive; "b" (the torn record) may be lost but must not
	// corrupt the database.
	if _, err := db2.Get([]byte("a")); err != nil {
		t.Fatalf("Get(a) after torn tail: %v", err)
	}
}

func TestCompactionPreservesData(t *testing.T) {
	opts := testOptions()
	db, _ := openTestDB(t, opts)
	const n = 3000
	rng := rand.New(rand.NewSource(7))
	want := make(map[string]string)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%05d", rng.Intn(800))
		v := fmt.Sprintf("val%d-%d", i, rng.Int63())
		want[k] = v
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			dk := fmt.Sprintf("key%05d", rng.Intn(800))
			delete(want, dk)
			if err := db.Delete([]byte(dk)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		mustGet(t, db, k, v)
	}
	// Verify deleted keys stay deleted.
	for i := 0; i < 800; i++ {
		k := fmt.Sprintf("key%05d", i)
		if _, ok := want[k]; ok {
			continue
		}
		got, err := db.Get([]byte(k))
		if err == nil {
			// Key may legitimately exist if never deleted; cross-check.
			t.Fatalf("Get(%q) = %q, expected ErrNotFound", k, got)
		}
	}
}

func TestIteratorOrderAndTombstones(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	keys := []string{"apple", "banana", "cherry", "date", "elderberry"}
	for _, k := range keys {
		mustPut(t, db, k, "v-"+k)
	}
	if err := db.Delete([]byte("cherry")); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
		if want := "v-" + string(it.Key()); string(it.Value()) != want {
			t.Fatalf("value for %q = %q", it.Key(), it.Value())
		}
	}
	want := []string{"apple", "banana", "date", "elderberry"}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
}

func TestIteratorSeek(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	for i := 0; i < 100; i += 2 {
		mustPut(t, db, fmt.Sprintf("k%03d", i), "v")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 100; i += 2 {
		mustPut(t, db, fmt.Sprintf("k%03d", i), "v")
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	it.Seek([]byte("k050"))
	if !it.Valid() || string(it.Key()) != "k050" {
		t.Fatalf("Seek(k050) landed on %q", it.Key())
	}
	it.Seek([]byte("k0505")) // between k050 and k051
	if !it.Valid() || string(it.Key()) != "k051" {
		t.Fatalf("Seek(k0505) landed on %q", it.Key())
	}
	it.Seek([]byte("zzz"))
	if it.Valid() {
		t.Fatalf("Seek(zzz) should be exhausted, got %q", it.Key())
	}
}

func TestIteratorSpansMemtableAndTables(t *testing.T) {
	opts := testOptions()
	db, _ := openTestDB(t, opts)
	want := make(map[string]string)
	// Write enough to force multiple flushes and compactions.
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("k%06d", i%1500)
		v := fmt.Sprintf("v%d", i)
		want[k] = v
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	seen := make(map[string]string)
	var prev string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := string(it.Key())
		if prev != "" && k <= prev {
			t.Fatalf("keys out of order: %q after %q", k, prev)
		}
		prev = k
		seen[k] = string(it.Value())
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(seen), len(want))
	}
	for k, v := range want {
		if seen[k] != v {
			t.Fatalf("key %q = %q, want %q", k, seen[k], v)
		}
	}
}

func TestSnapshotSurvivesCompaction(t *testing.T) {
	opts := testOptions()
	db, _ := openTestDB(t, opts)
	mustPut(t, db, "pinned", "original")
	snap := db.GetSnapshot()
	defer snap.Release()

	// Overwrite many times and force compactions.
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte("pinned"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte(fmt.Sprintf("filler%05d", i)), bytes.Repeat([]byte{'f'}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}
	got, err := snap.Get([]byte("pinned"))
	if err != nil || string(got) != "original" {
		t.Fatalf("snapshot read after compaction = %q,%v", got, err)
	}
	mustGet(t, db, "pinned", "v1999")
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	const writers, readers, perWriter = 4, 4, 300

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-k%04d", w, i)
				if err := db.Put([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%d-k%04d", rng.Intn(writers), rng.Intn(perWriter))
				if _, err := db.Get([]byte(k)); err != nil && err != ErrNotFound {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(int64(r))
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			mustGet(t, db, fmt.Sprintf("w%d-k%04d", w, i), fmt.Sprintf("v%d", i))
		}
	}
}

func TestDoubleOpenFails(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := Open(dir, testOptions()); err == nil {
		t.Fatal("second Open of same dir succeeded")
	}
}

func TestClosedDBReturnsErrClosed(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after close = %v", err)
	}
	if _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close = %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestLargeValues(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	big := bytes.Repeat([]byte("large"), 100_000) // 500 KB, larger than memtable
	if err := db.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("big"))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big value mismatch (len %d, err %v)", len(got), err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = db.Get([]byte("big"))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big value after flush mismatch (len %d, err %v)", len(got), err)
	}
}

// --- Component-level tests ---

func TestInternalKeyOrdering(t *testing.T) {
	a := makeInternalKey(nil, []byte("a"), 5, kindSet)
	a2 := makeInternalKey(nil, []byte("a"), 9, kindSet)
	b := makeInternalKey(nil, []byte("b"), 1, kindSet)
	if compareInternal(a2, a) >= 0 {
		t.Fatal("newer sequence must sort before older for same user key")
	}
	if compareInternal(a, b) >= 0 {
		t.Fatal("user key order must dominate")
	}
	if compareInternal(a, a) != 0 {
		t.Fatal("equal keys must compare 0")
	}
	if got := internalKey(a).seq(); got != 5 {
		t.Fatalf("seq = %d", got)
	}
	if got := internalKey(a).kind(); got != kindSet {
		t.Fatalf("kind = %d", got)
	}
}

func TestSeparatorProperties(t *testing.T) {
	check := func(a, b string) {
		sep := separator(nil, []byte(a), []byte(b))
		if bytes.Compare(sep, []byte(a)) < 0 {
			t.Fatalf("separator(%q,%q)=%q < a", a, b, sep)
		}
		if b != "" && bytes.Compare(sep, []byte(b)) >= 0 {
			t.Fatalf("separator(%q,%q)=%q >= b", a, b, sep)
		}
	}
	check("abcd", "abzz")
	check("abc", "abd")
	check("a", "b")
	check("axxx", "ay")
	// Adjacent keys: fallback to a.
	sep := separator(nil, []byte("ab"), []byte("ab\x00"))
	if !bytes.Equal(sep, []byte("ab")) {
		t.Fatalf("adjacent separator = %q", sep)
	}
	suc := successor(nil, []byte("ab\xff"))
	if bytes.Compare(suc, []byte("ab\xff")) < 0 {
		t.Fatalf("successor = %q", suc)
	}
}

func TestSeparatorQuick(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Compare(a, b) >= 0 {
			return true // precondition: a < b
		}
		sep := separator(nil, a, b)
		return bytes.Compare(sep, a) >= 0 && bytes.Compare(sep, b) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFilter(t *testing.T) {
	var keys [][]byte
	for i := 0; i < 1000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("bloomkey%d", i)))
	}
	hashes := make([]uint32, len(keys))
	for i, k := range keys {
		hashes[i] = bloomHash(k)
	}
	filter := buildBloom(hashes)
	for _, k := range keys {
		if !bloomMayContain(filter, k) {
			t.Fatalf("false negative for %q", k)
		}
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if bloomMayContain(filter, []byte(fmt.Sprintf("absent%d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestBloomEmptyAndNil(t *testing.T) {
	if buildBloom(nil) != nil {
		t.Fatal("empty key set should produce nil filter")
	}
	if !bloomMayContain(nil, []byte("x")) {
		t.Fatal("nil filter must match everything")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	b := newBlockBuilder(4)
	var keys []internalKey
	for i := 0; i < 100; i++ {
		ik := makeInternalKey(nil, []byte(fmt.Sprintf("prefix-shared-key-%04d", i)), uint64(100+i), kindSet)
		keys = append(keys, ik)
		b.add(ik, []byte(fmt.Sprintf("value-%d", i)))
	}
	raw := b.finish()
	blk, err := parseBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	it := blk.iterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), keys[i]) {
			t.Fatalf("entry %d key = %v, want %v", i, it.Key(), keys[i])
		}
		if want := fmt.Sprintf("value-%d", i); string(it.Value()) != want {
			t.Fatalf("entry %d value = %q", i, it.Value())
		}
		i++
	}
	if i != 100 {
		t.Fatalf("iterated %d entries", i)
	}
	// SeekGE lands exactly.
	it.SeekGE(keys[57])
	if !it.Valid() || !bytes.Equal(it.Key(), keys[57]) {
		t.Fatalf("SeekGE(57) landed on %v", it.Key())
	}
	// SeekGE between keys lands on next.
	mid := makeInternalKey(nil, []byte("prefix-shared-key-0057x"), 1, kindSet)
	it.SeekGE(mid)
	if !it.Valid() || !bytes.Equal(it.Key(), keys[58]) {
		t.Fatalf("SeekGE(mid) landed on %v", it.Key())
	}
}

func TestSSTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/test.sst"
	opts := testOptions()
	w, err := newTableWriter(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		ik := makeInternalKey(nil, []byte(fmt.Sprintf("table-key-%06d", i)), uint64(i+1), kindSet)
		w.add(ik, []byte(fmt.Sprintf("table-value-%06d", i)))
	}
	smallest, largest, size, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	if size == 0 || smallest == nil || largest == nil {
		t.Fatal("bad table metadata")
	}
	r, err := openTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	// Point lookups.
	var cur cursor
	var lookup internalKey
	seeks := new(telemetry.Counter)
	for i := 0; i < n; i += 37 {
		lookup = makeInternalKey(lookup, []byte(fmt.Sprintf("table-key-%06d", i)), maxSequence, kindSeek)
		v, kind, ok, err := cur.get(r, lookup, seeks)
		if err != nil || !ok || kind != kindSet {
			t.Fatalf("get %d: ok=%v kind=%d err=%v", i, ok, kind, err)
		}
		// The cursor is left on the entry found.
		if ik := cur.it.Key(); ik.seq() != uint64(i+1) {
			t.Fatalf("get %d seq = %d", i, ik.seq())
		}
		if want := fmt.Sprintf("table-value-%06d", i); string(v) != want {
			t.Fatalf("get %d = %q", i, v)
		}
	}
	// Absent key.
	lookup = makeInternalKey(lookup, []byte("zzz"), maxSequence, kindSeek)
	if _, _, ok, err := cur.get(r, lookup, seeks); err != nil || ok {
		t.Fatalf("absent key ok=%v err=%v", ok, err)
	}
	// Full scan.
	it := r.iterator()
	count := 0
	var prev internalKey
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if prev != nil && compareInternal(prev, it.Key()) >= 0 {
			t.Fatal("table iterator out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != n {
		t.Fatalf("scanned %d entries, want %d", count, n)
	}
}

func TestSSTableCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/corrupt.sst"
	w, err := newTableWriter(path, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		w.add(makeInternalKey(nil, []byte(fmt.Sprintf("k%04d", i)), uint64(i+1), kindSet), []byte("v"))
	}
	if _, _, _, err := w.finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the first data block: open checks every block once.
	data[10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := openTable(path); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			r.close()
		}
		t.Fatalf("open of a table with a corrupt data block: %v, want ErrCorrupt", err)
	}
}

// TestOpenRemovesObsoleteFiles plants what a crash can leave in a closed
// DB's directory — a table no version names, a log below the manifest's log
// number — and reopens it: both must go, and every named table and key stay.
func TestOpenRemovesObsoleteFiles(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Two flushes of the same keys: the first goes to L1, the second
	// overlaps it and lands in L0.
	for round := 0; round < 2; round++ {
		for i := 0; i < 100; i++ {
			mustPut(t, db, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	named := db.current.levels[0][0].fileNum
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A copy of a real table under an unused number, and an empty log
	// below every number the DB has used.
	orphan := tablePath(dir, 999)
	table, err := os.ReadFile(tablePath(dir, named))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, table, 0o644); err != nil {
		t.Fatal(err)
	}
	oldLog := walPath(dir, 0)
	if err := os.WriteFile(oldLog, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, path := range []string{orphan, oldLog} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s survived reopening (err=%v)", path, err)
		}
	}
	if _, err := os.Stat(tablePath(dir, named)); err != nil {
		t.Errorf("named table: %v", err)
	}
	for i := 0; i < 100; i++ {
		mustGet(t, db, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}
}

func TestMemtableVersions(t *testing.T) {
	m := newMemtable()
	m.add(1, kindSet, []byte("k"), []byte("v1"))
	m.add(2, kindSet, []byte("k"), []byte("v2"))
	m.add(3, kindDelete, []byte("k"), nil)

	get := func(key string, seq uint64) ([]byte, keyKind, bool) {
		return m.get(makeInternalKey(nil, []byte(key), seq, kindSeek))
	}
	if v, kind, ok := get("k", 1); !ok || kind != kindSet || string(v) != "v1" {
		t.Fatalf("get@1 = %q %v %v", v, kind, ok)
	}
	if v, kind, ok := get("k", 2); !ok || kind != kindSet || string(v) != "v2" {
		t.Fatalf("get@2 = %q %v %v", v, kind, ok)
	}
	if _, kind, ok := get("k", 3); !ok || kind != kindDelete {
		t.Fatalf("get@3 kind=%v ok=%v", kind, ok)
	}
	if _, _, ok := get("other", 3); ok {
		t.Fatal("absent key reported present")
	}
}

func TestMemtableOrderQuick(t *testing.T) {
	f := func(keys [][]byte) bool {
		m := newMemtable()
		for i, k := range keys {
			m.add(uint64(i+1), kindSet, k, []byte("v"))
		}
		it := m.iterator()
		var prev internalKey
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if prev != nil && compareInternal(prev, it.Key()) >= 0 {
				return false
			}
			prev = append(internalKey(nil), it.Key()...)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/test.log"
	w, err := newWALWriter(path, "")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{'x'}, i*10)))
		want = append(want, rec)
		if err := w.append(rec, i%10 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	err = replayWAL(path, func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestWALGroupOneWrite logs one write group whose records straddle 64 KiB
// from the group's own buffer: it replays record for record, each record is
// the payload the group hands its hook, the recycled group keeps no buffer
// past 64 KiB, and logging a small group into it afterwards allocates
// nothing.
func TestWALGroupOneWrite(t *testing.T) {
	path := t.TempDir() + "/group.log"
	w, err := newWALWriter(path, "")
	if err != nil {
		t.Fatal(err)
	}
	batch := func(key string, n int) *Batch {
		b := NewBatch()
		b.Put([]byte(key), bytes.Repeat([]byte{'v'}, n))
		b.replicated = true // a member, so Record reads its payload back
		return b
	}
	var g Group
	var want [][]byte
	for i, b := range []*Batch{batch("a", 1), batch("big", 70<<10), batch("c", 0), batch("d", 300)} {
		b.startSeq = uint64(i + 1)
		g.log(b, nil)
		want = append(want, b.Encode())
	}
	for i := range want {
		if !bytes.Equal(g.Record(i), want[i]) {
			t.Fatalf("group record %d is not its batch's encoding", i)
		}
	}
	if err := w.appendAll(g.buf, true); err != nil {
		t.Fatal(err)
	}
	g.Reset()
	if c := cap(g.buf); c > 64<<10 {
		t.Fatalf("a recycled group keeps a %d-byte buffer, want <= 64 KiB", c)
	}
	small := []*Batch{batch("k1", 8), batch("k2", 8)}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, b := range small {
			g.log(b, nil)
		}
		if err := w.appendAll(g.buf, false); err != nil {
			t.Fatal(err)
		}
		g.Reset()
	}); allocs != 0 {
		t.Errorf("logging a small unsynced group allocates %.1f objects, want 0", allocs)
	}
	for i := 0; i < 101; i++ { // AllocsPerRun's warm-up call and its 100 runs
		want = append(want, small[0].Encode(), small[1].Encode())
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if err := replayWAL(path, func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, rec := range want {
		if !bytes.Equal(got[i], rec) {
			t.Fatalf("record %d: %d bytes, want %d", i, len(got[i]), len(rec))
		}
	}
}

// TestWALWriteErrorIsSticky fails one group's WAL write after part of its
// frame reached the log. Every later group on that log must fail too: were
// one acknowledged behind the torn frame, replay would stop at the tear and
// lose it. A crash image of the directory then holds every acknowledged
// write.
func TestWALWriteErrorIsSticky(t *testing.T) {
	db, dir := openTestDB(t, testOptions())
	defer db.Close()
	acked := map[string]bool{}
	put := func(k string) error {
		err := db.Put([]byte(k), []byte("v-"+k))
		if err == nil {
			acked[k] = true
		}
		return err
	}
	if err := put("before"); err != nil {
		t.Fatal(err)
	}

	// Tear the log: half a frame reaches the file, then the write fails.
	closed, err := os.Create(t.TempDir() + "/closed")
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	db.mu.Lock()
	good := db.wal.f
	frame := wire.AppendFrame(nil, bytes.Repeat([]byte{'t'}, 64))
	if _, err := good.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	db.wal.f = closed
	db.mu.Unlock()
	if err := put("failed"); err == nil {
		t.Fatal("a write to a closed log succeeded")
	}

	// The file works again; the log must not.
	db.mu.Lock()
	db.wal.f = good
	db.mu.Unlock()
	if err := put("after"); err == nil {
		t.Fatal("a group was acknowledged behind a torn frame")
	}

	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crash+"/"+e.Name(), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(crash, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k := range acked {
		mustGet(t, re, k, "v-"+k)
	}
}

func TestVersionEditRoundTrip(t *testing.T) {
	e := &versionEdit{
		logNumber:   7,
		nextFileNum: 42,
		lastSeq:     99,
		added: []editAdd{{level: 2, meta: &tableMeta{
			fileNum:  10,
			size:     1234,
			smallest: makeInternalKey(nil, []byte("aaa"), 1, kindSet),
			largest:  makeInternalKey(nil, []byte("zzz"), 50, kindSet),
		}}},
		deleted: []editDelete{{level: 1, fileNum: 3}},
	}
	enc := e.encode(nil)
	dec, err := decodeVersionEdit(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.logNumber != 7 || dec.nextFileNum != 42 || dec.lastSeq != 99 {
		t.Fatalf("decoded header %+v", dec)
	}
	if len(dec.added) != 1 || dec.added[0].level != 2 || dec.added[0].meta.fileNum != 10 {
		t.Fatalf("decoded added %+v", dec.added)
	}
	if len(dec.deleted) != 1 || dec.deleted[0].fileNum != 3 {
		t.Fatalf("decoded deleted %+v", dec.deleted)
	}
}

func TestGetSequencePointReads(t *testing.T) {
	db, _ := openTestDB(t, testOptions())
	// Interleave versions across memtable and SSTs, then read at several
	// historical sequences.
	var seqs []uint64
	for i := 0; i < 10; i++ {
		mustPut(t, db, "vk", fmt.Sprintf("version-%d", i))
		seqs = append(seqs, db.LastSequence())
		if i == 4 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, seq := range seqs {
		got, present, err := db.getInto(nil, []byte("vk"), seq)
		if err != nil || !present {
			t.Fatalf("getInto(%d): present=%v err=%v", seq, present, err)
		}
		if want := fmt.Sprintf("version-%d", i); string(got) != want {
			t.Fatalf("getInto(%d) = %q, want %q", seq, got, want)
		}
	}
}
