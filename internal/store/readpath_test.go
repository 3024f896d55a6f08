package store

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

// scGet is lookupInto at the latest state with a fresh buffer.
func scGet(sc *stateCache, key string) (val string, present, ok bool) {
	v, present, ok := sc.lookupInto(nil, []byte(key), latestSeq)
	return string(v), present, ok
}

func TestStateCacheLRURecyclesVictim(t *testing.T) {
	sc := newStateCache(8) // one shard of 8
	if len(sc.shards) != 1 || sc.shards[0].capacity != 8 {
		t.Fatalf("shards=%d capacity=%d, want 1x8", len(sc.shards), sc.shards[0].capacity)
	}
	s := sc.shards[0]
	for i := 0; i < 8; i++ {
		sc.insert([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), true, 1, 0)
	}
	victim := s.lru.prev // k0, the least recently used
	if string(victim.key) != "k0" {
		t.Fatalf("LRU victim is %q, want k0", victim.key)
	}
	// A hit moves k0 to the front, so the next fill evicts k1 instead.
	if v, present, ok := scGet(sc, "k0"); !ok || !present || v != "v0" {
		t.Fatalf("k0 = %q present=%v ok=%v", v, present, ok)
	}
	victim = s.lru.prev
	sc.insert([]byte("k8"), []byte("v8"), true, 1, 0)
	if _, _, ok := scGet(sc, "k1"); ok {
		t.Fatal("k1 survived eviction")
	}
	if s.lru.next != victim || string(victim.key) != "k8" || string(victim.val) != "v8" {
		t.Fatalf("fill did not recycle the victim entry: front=%q/%q", s.lru.next.key, s.lru.next.val)
	}
	if s.n != 8 || len(s.index) != 8 {
		t.Fatalf("n=%d index=%d after eviction, want 8", s.n, len(s.index))
	}
	for _, k := range []string{"k0", "k2", "k7", "k8"} {
		if v, present, ok := scGet(sc, k); !ok || !present || v != "v"+k[1:] {
			t.Fatalf("%s = %q present=%v ok=%v", k, v, present, ok)
		}
	}

	// A hit appends to the caller's buffer and leaves its prefix alone.
	if v, _, ok := sc.lookupInto([]byte("pre-"), []byte("k2"), latestSeq); !ok || string(v) != "pre-v2" {
		t.Fatalf("lookupInto with prefix = %q ok=%v", v, ok)
	}
	// An entry recorded at seq 5 cannot serve a snapshot at seq 4.
	sc.insert([]byte("k2"), []byte("new"), true, 5, 0)
	if _, _, ok := sc.lookupInto(nil, []byte("k2"), 4); ok {
		t.Fatal("entry from seq 5 served a read at seq 4")
	}
	if v, _, ok := sc.lookupInto(nil, []byte("k2"), 5); !ok || string(v) != "new" {
		t.Fatalf("k2@5 = %q ok=%v", v, ok)
	}

	// Write-through: cached keys follow the batch, uncached keys stay out,
	// and the generation bump fences fills that read before it.
	b := NewBatch()
	b.Put([]byte("k7"), []byte("written"))
	b.Delete([]byte("k8"))
	b.Put([]byte("cold"), []byte("x"))
	b.startSeq = 10
	sc.applyBatch(b)
	if v, present, ok := scGet(sc, "k7"); !ok || !present || v != "written" {
		t.Fatalf("k7 after write-through = %q present=%v ok=%v", v, present, ok)
	}
	if _, present, ok := scGet(sc, "k8"); !ok || present {
		t.Fatalf("k8 after delete: present=%v ok=%v, want a cached absence", present, ok)
	}
	if _, _, ok := scGet(sc, "cold"); ok {
		t.Fatal("a write populated an uncached key")
	}
	sc.insert([]byte("k7"), []byte("stale"), true, 9, 0) // gen 0 predates the batch
	if v, _, _ := scGet(sc, "k7"); v != "written" {
		t.Fatalf("stale-generation fill overwrote k7: %q", v)
	}
}

// TestStateCacheHashChain builds by hand what two keys with one hash look
// like and checks find and evict over every chain position.
func TestStateCacheHashChain(t *testing.T) {
	s := newStateCache(8).shards[0]
	add := func(key string) *scEntry {
		e := &scEntry{hash: 7, key: []byte(key), chain: s.index[7]}
		s.index[7] = e
		s.pushFront(e)
		s.n++
		return e
	}
	a, b, c := add("a"), add("b"), add("c") // chain: c -> b -> a; LRU order: a, b, c
	for _, e := range []*scEntry{a, b, c} {
		if s.find(7, e.key) != e {
			t.Fatalf("find(%q) missed", e.key)
		}
	}
	if s.find(7, []byte("d")) != nil || s.find(8, []byte("a")) != nil {
		t.Fatal("find matched a key that is not cached")
	}
	s.touch(a) // LRU order: b, c, a — so evictions hit mid-chain, head, last
	for i, want := range []*scEntry{b, c, a} {
		if got := s.evict(); got != want {
			t.Fatalf("eviction %d took %q, want %q", i, got.key, want.key)
		}
		if s.find(7, want.key) != nil {
			t.Fatalf("%q still indexed after eviction", want.key)
		}
		for _, rest := range []*scEntry{b, c, a}[i+1:] {
			if s.find(7, rest.key) != rest {
				t.Fatalf("evicting %q lost %q", want.key, rest.key)
			}
		}
	}
	if len(s.index) != 0 || s.lru.next != &s.lru || s.lru.prev != &s.lru {
		t.Fatal("shard not empty after evicting everything")
	}
}

// coldDB returns a DB whose n keys sit in tables (none in the memtable),
// with a state cache far smaller than the key set.
func coldDB(t *testing.T, n int) (*DB, [][]byte) {
	t.Helper()
	opts := testOptions()
	opts.StateCacheEntries = 64
	db, _ := openTestDB(t, opts)
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
// path: with a reused buffer, neither a state-cache hit nor a miss served
// from the block cache allocates.
func TestPointReadAllocs(t *testing.T) {
	db, keys := coldDB(t, 1024)
	buf := make([]byte, 0, 256)
	read := func(key []byte) {
		v, present, err := db.GetInto(buf[:0], key)
		if err != nil || !present || len(v) != 100 {
			t.Fatalf("GetInto(%q): len=%d present=%v err=%v", key, len(v), present, err)
		}
	}
	for _, k := range keys { // fill the block cache; the state cache churns
		read(k)
	}

	hot := keys[0]
	read(hot)
	if allocs := testing.AllocsPerRun(200, func() { read(hot) }); allocs != 0 {
		t.Errorf("state-cache hit: %.1f allocs per GetInto, want 0", allocs)
	}
	visited := 0
	visit := func(v []byte, present bool) { visited += len(v) }
	if allocs := testing.AllocsPerRun(200, func() {
		if err := db.VisitLatest(hot, visit); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 || visited == 0 {
		t.Errorf("state-cache hit: %.1f allocs per VisitLatest (visited %d bytes), want 0", allocs, visited)
	}

	// Rotating through 1024 keys over 64 slots misses every time; each fill
	// recycles an evicted entry.
	_, missesBefore := db.StateCacheStats()
	_, blockMissesBefore := db.BlockCacheStats()
	next := 0
	const runs = 500
	allocs := testing.AllocsPerRun(runs, func() {
		next = (next + 1) % len(keys)
		read(keys[next])
	})
	_, missesAfter := db.StateCacheStats()
	_, blockMissesAfter := db.BlockCacheStats()
	if got := missesAfter - missesBefore; got < runs {
		t.Fatalf("%d state-cache misses over %d reads: the rotation is not cold", got, runs)
	}
	if blockMissesAfter != blockMissesBefore {
		t.Fatalf("%d block-cache misses: reads went to disk", blockMissesAfter-blockMissesBefore)
	}
	if allocs > 1 && !raceEnabled {
		t.Errorf("state-cache miss from the block cache: %.1f allocs per GetInto, want <= 1", allocs)
	}
	t.Logf("state-cache miss from the block cache: %.1f allocs per GetInto", allocs)
}

// TestCompactionKeepsTablesOfPinnedVersion is the regression test for the
// unlink race: a read captures the current version, a compaction installs
// the next one, and the read then opens its tables by file number. The
// inputs must stay on disk until the last reader of the old version is
// done, and go away right then.
func TestCompactionKeepsTablesOfPinnedVersion(t *testing.T) {
	opts := testOptions()
	opts.StateCacheEntries = -1 // every read goes to the tables
	db, dir := openTestDB(t, opts)
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
// committing writer over a state cache of capacity 8. A value a reader got
// from GetInto is its own: a write-through to the same key rewrites the
// cache entry in place, and fills for other keys recycle it, and neither
// may show through. Run under -race.
func TestGetIntoIsolatedFromWritesAndRecycling(t *testing.T) {
	opts := testOptions()
	opts.StateCacheEntries = 8
	db, _ := openTestDB(t, opts)
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
				// More reads churn the 8-entry cache under the held value.
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
