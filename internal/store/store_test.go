package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"testing/quick"
)

// testOptions returns small sizes so tests exercise flush and compaction
// paths quickly.
func testOptions() *Options {
	o := NewOptions()
	o.MemtableBytes = 32 << 10
	o.BlockBytes = 1 << 10
	o.LevelBaseBytes = 64 << 10
	o.LevelMultiplier = 4
	return o
}

func openTestDB(t *testing.T, opts *Options) (*DB, string) {
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
	logs, err := findLogs(dir, 0)
	if err != nil || len(logs) == 0 {
		t.Fatalf("findLogs: %v %v", logs, err)
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
		sep := separator([]byte(a), []byte(b))
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
	sep := separator([]byte("ab"), []byte("ab\x00"))
	if !bytes.Equal(sep, []byte("ab")) {
		t.Fatalf("adjacent separator = %q", sep)
	}
	suc := successor([]byte("ab\xff"))
	if bytes.Compare(suc, []byte("ab\xff")) < 0 {
		t.Fatalf("successor = %q", suc)
	}
}

func TestSeparatorQuick(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Compare(a, b) >= 0 {
			return true // precondition: a < b
		}
		sep := separator(a, b)
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
	r, err := openTable(path, newBlockCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	// Point lookups.
	rs := new(readScratch)
	for i := 0; i < n; i += 37 {
		rs.ikey = makeInternalKey(rs.ikey, []byte(fmt.Sprintf("table-key-%06d", i)), maxSequence, kindSeek)
		v, kind, ok, err := r.get(rs)
		if err != nil || !ok || kind != kindSet {
			t.Fatalf("get %d: ok=%v kind=%d err=%v", i, ok, kind, err)
		}
		// The cursor is left on the entry found.
		if ik := rs.it.Key(); ik.seq() != uint64(i+1) {
			t.Fatalf("get %d seq = %d", i, ik.seq())
		}
		if want := fmt.Sprintf("table-value-%06d", i); string(v) != want {
			t.Fatalf("get %d = %q", i, v)
		}
	}
	// Absent key.
	rs.ikey = makeInternalKey(rs.ikey, []byte("zzz"), maxSequence, kindSeek)
	if _, _, ok, err := r.get(rs); err != nil || ok {
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
	// Flip a byte in the first data block.
	data[10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := openTable(path, newBlockCache(1<<20))
	if err != nil {
		// Corruption in index region also acceptable.
		return
	}
	defer r.close()
	_, _, _, err = r.get(&readScratch{ikey: makeInternalKey(nil, []byte("k0000"), maxSequence, kindSeek)})
	if err == nil {
		t.Fatal("corrupted block read succeeded")
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

func TestBlockCache(t *testing.T) {
	c := newBlockCache(1024)
	r1 := &tableReader{}
	r2 := &tableReader{}
	blk := &block{}
	c.put(r1, 0, blk, 400)
	c.put(r1, 400, blk, 400)
	if got := c.get(r1, 0); got != blk {
		t.Fatal("miss on cached block")
	}
	// Third insert exceeds capacity: LRU (offset 400, not recently used)
	// must go; offset 0 was just touched.
	c.put(r2, 0, blk, 400)
	if c.get(r1, 400) != nil {
		t.Fatal("LRU victim survived")
	}
	if c.get(r1, 0) == nil {
		t.Fatal("recently used block evicted")
	}
	// drop removes all of one reader's blocks.
	c.drop(r1)
	if c.get(r1, 0) != nil {
		t.Fatal("dropped block still cached")
	}
	if c.get(r2, 0) == nil {
		t.Fatal("other reader's block dropped")
	}
	hits, misses := c.stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats = %d, %d", hits, misses)
	}
	// Nil cache is inert.
	var nilCache *blockCache
	nilCache.put(r1, 0, blk, 1)
	if nilCache.get(r1, 0) != nil {
		t.Fatal("nil cache returned a block")
	}
	nilCache.drop(r1)
	// Oversized entries are rejected rather than evicting everything.
	c.put(r2, 999, blk, 10_000)
	if c.get(r2, 999) != nil {
		t.Fatal("oversized block cached")
	}
}

func TestBlockCacheServesRepeatedReads(t *testing.T) {
	opts := testOptions()
	opts.BlockCacheBytes = 1 << 20
	db, _ := openTestDB(t, opts)
	for i := 0; i < 500; i++ {
		mustPut(t, db, fmt.Sprintf("bc%04d", i), fmt.Sprintf("v%d", i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i += 25 {
			mustGet(t, db, fmt.Sprintf("bc%04d", i), fmt.Sprintf("v%d", i))
		}
	}
	hits, _ := db.tcache.blocks.stats()
	if hits == 0 {
		t.Fatal("block cache never hit on repeated reads")
	}
}
