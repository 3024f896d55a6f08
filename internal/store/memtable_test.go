package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// refEntry is one entry of the sorted reference the arena memtable is
// checked against.
type refEntry struct {
	key   string
	seq   uint64
	kind  keyKind
	value []byte
}

// refLess is internal-key order: key ascending, then sequence descending.
func refLess(a, b refEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq > b.seq
}

// TestMemtableModel drives the arena skiplist with a seeded mix of sets and
// tombstones over a small key space (so keys have many versions) and value
// sizes that roll chunks over, then checks it against a sorted slice: every
// entry at its own sequence, the newest version visible at arbitrary
// sequences, iteration order, and SeekGE.
func TestMemtableModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newMemtable()
		var ref []refEntry
		const n = 3000
		for seq := uint64(1); seq <= n; seq++ {
			e := refEntry{key: fmt.Sprintf("k%03d", rng.Intn(150)), seq: seq, kind: kindSet}
			if rng.Intn(5) == 0 {
				e.kind = kindDelete
			} else {
				e.value = make([]byte, rng.Intn(400))
				rng.Read(e.value)
			}
			if err := m.add(e.seq, e.kind, []byte(e.key), e.value); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, e)
		}
		if m.len() != n {
			t.Fatalf("len = %d, want %d", m.len(), n)
		}
		if len(m.arena.chunks) < 8 {
			t.Fatalf("only %d chunks: the fixture does not roll chunks over", len(m.arena.chunks))
		}
		sort.Slice(ref, func(i, j int) bool { return refLess(ref[i], ref[j]) })

		// visible returns the reference's answer to a lookup.
		visible := func(key string, seq uint64) (refEntry, bool) {
			i := sort.Search(len(ref), func(i int) bool { return !refLess(ref[i], refEntry{key: key, seq: seq}) })
			if i < len(ref) && ref[i].key == key {
				return ref[i], true
			}
			return refEntry{}, false
		}
		check := func(key string, seq uint64) {
			t.Helper()
			want, wantOK := visible(key, seq)
			v, kind, ok := m.get(makeInternalKey(nil, []byte(key), seq, kindSeek))
			if ok != wantOK || (ok && (kind != want.kind || !bytes.Equal(v, want.value))) {
				t.Fatalf("seed %d: get(%s@%d) = %d bytes, kind %d, %v; want %d bytes, kind %d, %v",
					seed, key, seq, len(v), kind, ok, len(want.value), want.kind, wantOK)
			}
		}
		for _, e := range ref {
			check(e.key, e.seq)
		}
		for i := 0; i < 2000; i++ {
			check(fmt.Sprintf("k%03d", rng.Intn(160)), uint64(rng.Intn(n+10)))
		}

		it := m.iterator()
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			e := ref[i]
			if k := it.Key(); string(k.userKey()) != e.key || k.seq() != e.seq || k.kind() != e.kind || !bytes.Equal(it.Value(), e.value) {
				t.Fatalf("seed %d: entry %d is %s, want %s@%d#%d", seed, i, k, e.key, e.seq, e.kind)
			}
			i++
		}
		if i != len(ref) {
			t.Fatalf("seed %d: iterated %d entries, want %d", seed, i, len(ref))
		}
		for j := 0; j < 500; j++ {
			key, seq := fmt.Sprintf("k%03d", rng.Intn(160)), uint64(rng.Intn(n+10))
			it.SeekGE(makeInternalKey(nil, []byte(key), seq, kindSeek))
			i := sort.Search(len(ref), func(i int) bool { return !refLess(ref[i], refEntry{key: key, seq: seq}) })
			if it.Valid() != (i < len(ref)) {
				t.Fatalf("seed %d: SeekGE(%s@%d) valid = %v, want %v", seed, key, seq, it.Valid(), i < len(ref))
			}
			if it.Valid() && (string(it.Key().userKey()) != ref[i].key || it.Key().seq() != ref[i].seq) {
				t.Fatalf("seed %d: SeekGE(%s@%d) = %s, want %s@%d", seed, key, seq, it.Key(), ref[i].key, ref[i].seq)
			}
		}
	}
}

// TestArenaChunks pins the arena's shape: chunks grow to the fixed size and
// no further, an entry larger than a chunk gets a chunk of its own without
// disturbing its neighbours, and the reserved size is the chunks' total.
func TestArenaChunks(t *testing.T) {
	m := newMemtable()
	if got := m.approximateBytes(); got != arenaMinChunkBytes {
		t.Fatalf("an empty memtable reserves %d bytes, want one %d-byte chunk", got, arenaMinChunkBytes)
	}
	value := bytes.Repeat([]byte("v"), 1000)
	big := bytes.Repeat([]byte("B"), 3*arenaMaxChunkBytes+17)
	const n = 400
	for i := 0; i < n; i++ {
		if i == n/2 {
			m.add(uint64(n+1), kindSet, []byte("big"), big)
		}
		m.add(uint64(i+1), kindSet, []byte(fmt.Sprintf("key%04d", i)), value)
	}
	reserved, oversized := 0, 0
	for i, c := range m.arena.chunks {
		reserved += len(c)
		switch {
		case len(c) > arenaMaxChunkBytes:
			oversized++
			if len(c) > len(big)+100 {
				t.Fatalf("chunk %d is %d bytes for a %d-byte value", i, len(c), len(big))
			}
		case len(c) < arenaMinChunkBytes:
			t.Fatalf("chunk %d is %d bytes, below the minimum", i, len(c))
		}
	}
	if oversized != 1 {
		t.Fatalf("%d oversized chunks, want 1 (the one big value)", oversized)
	}
	if got := m.approximateBytes(); got != reserved || reserved < n*len(value)+len(big) {
		t.Fatalf("approximateBytes = %d, chunks total %d, payload %d", got, reserved, n*len(value)+len(big))
	}
	if last := m.arena.chunks[len(m.arena.chunks)-1]; len(last) != arenaMaxChunkBytes {
		t.Fatalf("the last chunk is %d bytes, want the fixed %d", len(last), arenaMaxChunkBytes)
	}
	for i := 0; i < n; i++ {
		v, _, ok := m.get(makeInternalKey(nil, []byte(fmt.Sprintf("key%04d", i)), maxSequence, kindSeek))
		if !ok || !bytes.Equal(v, value) {
			t.Fatalf("key%04d: got %d bytes, %v", i, len(v), ok)
		}
	}
	if v, _, ok := m.get(makeInternalKey(nil, []byte("big"), maxSequence, kindSeek)); !ok || !bytes.Equal(v, big) {
		t.Fatalf("big: got %d bytes, %v", len(v), ok)
	}
}

// TestMemtableConcurrentReaders runs one writer against point readers and
// iterators while the arena grows through many chunks; under -race it is
// the check that what readers touch outside the lock is never written.
func TestMemtableConcurrentReaders(t *testing.T) {
	m := newMemtable()
	const n = 4000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i*7919%n)) }
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100+i%200) }
	written := make(chan int, n) // buffered for every send: the writer never waits for a reader
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(2)
		go func() { // point reads of everything the writer has announced
			defer wg.Done()
			for i := range written {
				v, kind, ok := m.get(makeInternalKey(nil, key(i), maxSequence, kindSeek))
				if !ok || kind != kindSet || !bytes.Equal(v, value(i)) {
					t.Errorf("get(%s) = %d bytes, %v", key(i), len(v), ok)
					return
				}
			}
		}()
		go func() { // full scans: sorted, and every value the one its key had
			defer wg.Done()
			for scans := 0; scans < 20; scans++ {
				it := m.iterator()
				var prev internalKey
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if prev != nil && compareInternal(prev, it.Key()) >= 0 {
						t.Errorf("scan out of order: %s then %s", prev, it.Key())
						return
					}
					prev = it.Key()
					if i := int(it.Key().seq()) - 1; !bytes.Equal(it.Value(), value(i)) {
						t.Errorf("scan: %s has a wrong value", it.Key())
						return
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := m.add(uint64(i+1), kindSet, key(i), value(i)); err != nil {
			t.Error(err)
			break
		}
		written <- i
	}
	close(written)
	wg.Wait()
	if chunks := len(m.arena.chunks); chunks < 10 {
		t.Fatalf("%d chunks: the writer did not grow the arena under the readers", chunks)
	}
}

// TestMemtableBytesBoundsFlush pins the flush trigger: memtableBytes bounds
// the memory a memtable reserves, so entries of a known size rotate it when
// their total is within one chunk of the limit — not at some multiple of it,
// as a per-entry guess that ignores overhead would allow.
func TestMemtableBytesBoundsFlush(t *testing.T) {
	opts := &Options{memtableBytes: 512 << 10}
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	current := func() *memtable {
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.mem
	}
	first := current()
	value := make([]byte, 1000)
	entries := 0
	for current() == first {
		if err := db.Put([]byte(fmt.Sprintf("key%012d", entries)), value); err != nil {
			t.Fatal(err)
		}
		entries++
		if entries > 4*opts.memtableBytes/len(value) {
			t.Fatal("the memtable never rotated")
		}
	}
	entries-- // the write that found it full went to its successor
	if got := first.approximateBytes(); got < opts.memtableBytes || got >= opts.memtableBytes+arenaMaxChunkBytes {
		t.Fatalf("the rotated memtable reserved %d bytes against a limit of %d", got, opts.memtableBytes)
	}
	// The last chunk had just been opened and every chunk ends in less than
	// one unused node, so the entries themselves fall short of the limit by
	// between one chunk and two.
	nodes := entries * (nodeHeaderBytes + 4 + len("key000000000000") + 8 + len(value))
	if nodes > opts.memtableBytes-arenaMaxChunkBytes || nodes < opts.memtableBytes-2*arenaMaxChunkBytes {
		t.Fatalf("rotated after %d entries, %d bytes of nodes, against a limit of %d", entries, nodes, opts.memtableBytes)
	}
}

// TestDBWriteAllocBound guards the commit path's storage half: into a warm
// DB a write costs no allocation per record, per batch or per group — only
// an arena chunk every few hundred batches.
func TestDBWriteAllocBound(t *testing.T) {
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	write := batchWriter(t, db)
	for i := 0; i < 100; i++ {
		write()
	}
	if allocs := testing.AllocsPerRun(500, write); allocs > 2 && !raceEnabled {
		t.Fatalf("DB.Write of an 8-key batch allocates %.2f objects, want <= 2", allocs)
	}
}

// batchWriter returns a closure that writes the next 8-key batch through a
// reused Batch and key buffer.
func batchWriter(tb testing.TB, db *DB) func() {
	b := NewBatch()
	value := make([]byte, 100)
	key := make([]byte, 0, 32)
	seq := 0
	return func() {
		b.Reset()
		for i := 0; i < 8; i++ {
			seq++
			key = strconv.AppendInt(append(key[:0], "key"...), int64(1e12+seq), 10)
			b.Put(key, value)
		}
		if err := db.Write(b); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkMemtableAdd is the arena's per-insert cost alone.
func BenchmarkMemtableAdd(b *testing.B) {
	m := newMemtable()
	value := make([]byte, 100)
	key := make([]byte, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100000 == 0 {
			m = newMemtable() // a flush-sized memtable, not an ever-deeper one
		}
		key = strconv.AppendInt(append(key[:0], "key"...), int64(1e12+i*7919%100000), 10)
		if err := m.add(uint64(i+1), kindSet, key, value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBWriteSync8 is one fsynced commit of an 8-key write-set, the
// storage half of a replicated commit.
func BenchmarkDBWriteSync8(b *testing.B) {
	opts := &Options{SyncWrites: true}
	db, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	write := batchWriter(b, db)
	write()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
}

// BenchmarkDBWriteBulk is one fsynced Write of 64 batches, about 200 KB in
// all: the shape of a bulk load's chunk, a backup's large frame or a
// recovery chunk, whose write group logs every record into one buffer.
func BenchmarkDBWriteBulk(b *testing.B) {
	opts := &Options{SyncWrites: true}
	db, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	batches := make([]*Batch, 64)
	for i := range batches {
		batches[i] = NewBatch()
	}
	value := make([]byte, 100)
	key := make([]byte, 0, 32)
	seq := 0
	write := func() {
		for _, bt := range batches {
			bt.Reset()
			for j := 0; j < 24; j++ {
				seq++
				key = strconv.AppendInt(append(key[:0], "key"...), int64(1e12+seq), 10)
				bt.Put(key, value)
			}
		}
		if err := db.Write(batches...); err != nil {
			b.Fatal(err)
		}
	}
	write()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
}

// checkSkiplist walks every level of m's towers and fails unless each level
// is strictly ascending, holds only nodes tall enough for it, and is a
// subsequence of the level below, and level 0 holds every entry.
func checkSkiplist(t *testing.T, m *memtable) {
	t.Helper()
	below := map[uint32]int{} // ref -> position on the level below
	for level := 0; level < maxSkiplistHeight; level++ {
		on := map[uint32]int{}
		var prev internalKey
		lastPos := -1
		for ref := arenaNode(m.arena.at(0)).next(level); ref != 0; {
			n := arenaNode(m.arena.at(ref))
			if int(n[0]) <= level {
				t.Fatalf("level %d links a node of height %d", level, n[0])
			}
			if prev != nil && compareInternal(prev, n.key()) >= 0 {
				t.Fatalf("level %d: %s after %s", level, n.key(), prev)
			}
			if level > 0 {
				pos, ok := below[ref]
				if !ok || pos <= lastPos {
					t.Fatalf("level %d: %s is not in order on level %d", level, n.key(), level-1)
				}
				lastPos = pos
			}
			on[ref] = len(on)
			prev = n.key()
			ref = n.next(level)
		}
		if level == 0 && len(on) != m.count {
			t.Fatalf("level 0 links %d nodes, count is %d", len(on), m.count)
		}
		if level >= m.height && len(on) > 0 {
			t.Fatalf("level %d above the height %d links %d nodes", level, m.height, len(on))
		}
		below = on
	}
}

// TestSkiplistInvariantUnderInsertOrders feeds the memtable streams that hit
// and miss its insert fingers — ascending, descending, two interleaved
// ascending runs, and one user key rewritten at rising sequences (each
// version sorts before the last) — and checks the towers after each, and
// every entry by lookup.
func TestSkiplistInvariantUnderInsertOrders(t *testing.T) {
	const n = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
	streams := map[string]func(i int) (k []byte, seq uint64){
		"ascending":   func(i int) ([]byte, uint64) { return key(i), uint64(i + 1) },
		"descending":  func(i int) ([]byte, uint64) { return key(n - i), uint64(i + 1) },
		"interleaved": func(i int) ([]byte, uint64) { return key(i/2 + i%2*n), uint64(i + 1) },
		"one key":     func(i int) ([]byte, uint64) { return key(7), uint64(i + 1) },
		"runs of versions": func(i int) ([]byte, uint64) {
			return key(i / 4), uint64(n - i) // each key's versions arrive newest first
		},
	}
	for name, stream := range streams {
		t.Run(name, func(t *testing.T) {
			m := newMemtable()
			raisedOnHit := false
			for i := 0; i < n; i++ {
				k, seq := stream(i)
				hit, height := m.follows(makeInternalKey(nil, k, seq, kindSet)), m.height
				if err := m.add(seq, kindSet, k, []byte(name)); err != nil {
					t.Fatal(err)
				}
				raisedOnHit = raisedOnHit || (hit && m.height > height)
			}
			checkSkiplist(t, m)
			for i := 0; i < n; i++ {
				k, seq := stream(i)
				v, _, ok := m.get(makeInternalKey(nil, k, seq, kindSeek))
				if !ok || string(v) != name {
					t.Fatalf("get(%s@%d) = %q, %v", k, seq, v, ok)
				}
			}
			if name == "ascending" && !raisedOnHit {
				t.Fatal("no finger hit raised the list's height: the stream does not cover that case")
			}
		})
	}
	// The seeded random mix of TestMemtableModel, checked the same way.
	m := newMemtable()
	rng := rand.New(rand.NewSource(5))
	for seq := uint64(1); seq <= n; seq++ {
		if err := m.add(seq, kindSet, key(rng.Intn(300)), nil); err != nil {
			t.Fatal(err)
		}
	}
	checkSkiplist(t, m)
}

// accountStateKeys returns one seeded account's keys in the order the
// benchmark's set-up writes them (core's key layout: 'o' id8, then the
// header 0x00, version 0x05, value field 0x01, list entries 0x03 and list
// lengths 0x04): mostly ascending, with a few keys that sort back.
func accountStateKeys(id uint64, followers, posts int) [][]byte {
	prefix := binary.BigEndian.AppendUint64([]byte{'o'}, id)
	field := func(sub byte, name string) []byte {
		return append(append(append([]byte(nil), prefix...), sub), name...)
	}
	entry := func(list string, i int) []byte {
		return binary.BigEndian.AppendUint64(append(field(0x03, list), 0), uint64(i))
	}
	keys := [][]byte{field(0x00, ""), field(0x05, ""), field(0x01, "name")}
	for i := 0; i < followers; i++ {
		keys = append(keys, entry("followers", i))
	}
	keys = append(keys, field(0x04, "followers"))
	for i := 0; i < posts; i++ {
		keys = append(keys, entry("timeline", i))
	}
	return append(keys, field(0x04, "timeline"))
}

// BenchmarkMemtableAddSorted is an insert in the order a bulk load of
// accounts writes its keys: accounts ascending, each account's keys as
// accountStateKeys lists them. Most inserts link behind the fingers.
func BenchmarkMemtableAddSorted(b *testing.B) {
	var keys [][]byte
	for id := uint64(1); len(keys) < 100000; id++ {
		keys = append(keys, accountStateKeys(id, 8, 40)...)
	}
	value := make([]byte, 100)
	m := newMemtable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(keys) == 0 {
			m = newMemtable() // a flush-sized memtable, not an ever-deeper one
		}
		if err := m.add(uint64(i+1), kindSet, keys[i%len(keys)], value); err != nil {
			b.Fatal(err)
		}
	}
}
