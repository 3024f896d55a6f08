package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// storeFresh stores a StoreAt entry as a miss that saw the shard's current
// epoch would.
func storeFresh(c *Cache, object, argsHash uint64, result []byte, versionHash uint64) {
	c.StoreAt(object, argsHash, result, versionHash, c.shardFor(object).epoch)
}

// TestStoreAtCapacityAllocatesNothing guards a cache miss's store: at
// capacity it reuses the slot it evicts, and after an InvalidateObject the
// slot the invalidation freed, so neither allocates. An entry's links are
// slot numbers inside the shard's slab, its dependency is the version's
// hash, and the result is copied into the buffer the reused slot kept. A
// Store read set costs one slice and one slab of keys.
func TestStoreAtCapacityAllocatesNothing(t *testing.T) {
	c := New(64)
	result := make([]byte, 4960)
	next := 0
	store := func() {
		storeFresh(c, uint64(next), 40, result, uint64(next))
		next++
	}
	for i := 0; i < 4*64; i++ {
		store()
	}
	if allocs := testing.AllocsPerRun(1000, store); allocs != 0 {
		t.Fatalf("a store at capacity allocates %.1f objects, want 0", allocs)
	}
	if got := c.Stats().Evictions; got == 0 {
		t.Fatal("no store evicted: the cache never reached capacity")
	}

	// Each round invalidates the least recent object of the shard the next
	// store goes to, so the store reuses the slot the invalidation freed
	// and evicts nothing.
	evictions := c.Stats().Evictions
	invalidateThenStore := func() {
		s := c.shardFor(uint64(next))
		c.InvalidateObject(s.slab[s.slab[s.head].prev].object)
		store()
	}
	if allocs := testing.AllocsPerRun(1000, invalidateThenStore); allocs != 0 {
		t.Fatalf("a store after InvalidateObject allocates %.1f objects, want 0", allocs)
	}
	if got := c.Stats().Evictions; got != evictions {
		t.Fatalf("%d stores after an invalidation evicted: they did not reuse the freed slots", got-evictions)
	}

	wide := make([]ReadDep, 41)
	for i := range wide {
		wide[i] = ReadDep{Key: []byte(fmt.Sprintf("timeline entry key %d", i))}
	}
	storeWide := func() {
		c.Store(uint64(next), "get_timeline", 40, result, wide)
		next++
	}
	if allocs := testing.AllocsPerRun(200, storeWide); allocs != 2 {
		t.Fatalf("a 41-dependency store allocates %.1f objects, want 2", allocs)
	}
}

// TestChurnAtCapacityAllocatesNothing runs every operation that removes or
// rewrites an entry on a full cache whose objects hold several entries each:
// a store that evicts, an InvalidateObject that drops a whole chain and the
// store that refills its slots, and a same-key replace. None allocates, and
// no shard's index is rebuilt: deletion leaves no tombstones to rehash away.
func TestChurnAtCapacityAllocatesNothing(t *testing.T) {
	c := NewSharded(256, 4, nil)
	result := make([]byte, 64)
	next := uint64(0)
	store := func() {
		storeFresh(c, next/3, next%3, result, 1)
		next++
	}
	for c.Stats().Evictions < 256 {
		store()
	}
	type indexID struct {
		first *int32
		n     int
	}
	indexes := make([]indexID, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		if int(s.live) != len(s.slab) || len(s.slab) != int(s.capacity) {
			t.Fatalf("shard %d holds %d of %d slots live, capacity %d", i, s.live, len(s.slab), s.capacity)
		}
		indexes[i] = indexID{&s.index[0], len(s.index)}
	}

	before := c.Stats()
	round := func() {
		store()
		s := c.shardFor(next / 3)
		victim := s.slab[s.slab[s.head].prev]
		c.InvalidateObject(victim.object)
		store()
		store()
		recent := s.slab[s.head]
		storeFresh(c, recent.object, recent.argsHash, result, 2)
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a churn round at capacity allocates %.1f objects, want 0", allocs)
	}
	after := c.Stats()
	if after.Evictions == before.Evictions || after.Invalidations == before.Invalidations {
		t.Fatalf("degenerate churn: stats %+v before, %+v after", before, after)
	}
	for i := range c.shards {
		s := &c.shards[i]
		if (indexID{&s.index[0], len(s.index)}) != indexes[i] {
			t.Fatalf("shard %d rebuilt its index during churn at capacity", i)
		}
		if len(s.slab) != int(s.capacity) {
			t.Fatalf("shard %d's slab is %d slots, capacity %d", i, len(s.slab), s.capacity)
		}
	}
}

// liveHeap is the heap still reachable after a collection. Two cycles,
// because sync.Pool contents survive the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCacheEntryFootprint pins what the cache itself holds: an empty
// deployment-sized cache, and each live entry — its slab slot, its share of
// the index and the slab's growth slack, plus its own copy of the result,
// which costs the result's size class.
func TestCacheEntryFootprint(t *testing.T) {
	// Eight empty caches, so that what else the process frees or keeps
	// meanwhile weighs an eighth.
	base := liveHeap()
	var empty [8]*Cache
	for i := range empty {
		empty[i] = NewSharded(1024, DefaultShards, nil)
	}
	if each := (liveHeap() - base) / int64(len(empty)); each > 6<<10 {
		t.Fatalf("an empty NewSharded(1024, %d) holds %d B, want <= 6 KB", DefaultShards, each)
	}
	runtime.KeepAlive(empty)

	// 64 B is a size class of its own, so each copy costs exactly that.
	result := make([]byte, 64)
	for _, n := range []int{256, 1024} {
		c := NewSharded(1024, DefaultShards, nil)
		before := liveHeap()
		for obj := 0; obj < n; obj++ {
			storeFresh(c, uint64(obj), 40, result, 1)
		}
		live := c.Len()
		if live < n*9/10 {
			t.Fatalf("%d of %d stores live", live, n)
		}
		if per := (liveHeap() - before) / int64(live); per > 112+int64(len(result)) {
			t.Fatalf("%d live entries cost %d B each, want <= 112 + %d for the result", live, per, len(result))
		}
		runtime.KeepAlive(c)
	}
}

// TestStoreCopiesResultAndReadSet pins the ownership Store documents: the
// result and the read set are the cache's own copies, so the caller may
// reuse both buffers at once, and a hit appends an equal copy to the
// caller's buffer, never the cache's memory.
func TestStoreCopiesResultAndReadSet(t *testing.T) {
	for _, keyLen := range []int{3, 24, 25} {
		c := New(16)
		result := []byte("result")
		key := make([]byte, keyLen)
		for i := range key {
			key[i] = 'k'
		}
		wantKey, wantResult := string(key), string(result)
		c.Store(1, "m", 0, result, []ReadDep{{Key: key, ValueHash: 9}})
		// The caller's scratch, reused for the next invocation.
		for i := range key {
			key[i] = 'x'
		}
		copy(result, "xxxxxx")
		var seen []string
		dst := []byte("prefix:")
		res, _, ok := c.LookupAt(&dst, 1, 0, nil, func(k []byte) (uint64, bool) {
			seen = append(seen, string(k))
			return 9, true
		})
		if !ok {
			t.Fatalf("key of %d bytes: the stored entry did not validate", keyLen)
		}
		if len(seen) != 1 || seen[0] != wantKey {
			t.Fatalf("key of %d bytes: validated %q, want [%q]", keyLen, seen, wantKey)
		}
		if string(res) != wantResult || string(dst) != "prefix:"+wantResult || &res[0] != &dst[len("prefix:")] {
			t.Fatalf("key of %d bytes: a hit gave %q in %q, want %q appended to the caller's buffer", keyLen, res, dst, wantResult)
		}
		copy(res, "yyyyyy") // the caller owns what it got
		if again, ok := c.Lookup(1, "m", 0, func([]byte) uint64 { return 9 }); !ok || string(again) != wantResult {
			t.Fatalf("key of %d bytes: the next hit = %q, %v; want %q", keyLen, again, ok, wantResult)
		}
	}
}

// churnKey names one cached invocation in TestIndexesAgreeUnderChurn.
type churnKey struct{ object, argsHash uint64 }

// TestIndexesAgreeUnderChurn drives one shard with a seeded mix of Store
// and StoreAt entries, lookups, lookups that fail validation, invalidations
// and evictions, over objects that collide in the index, and after each
// step checks the shard against a reference
// model: the LRU ring's order is the model's, the index and the object
// chains reach exactly the ring's entries, every indexed object is found
// from its home position, and the free list holds only cleared slots none
// of them reaches, with live and free slots filling the slab within
// capacity. Results of three sizes, one above resultRetainMax, rotate
// through the slots' buffers.
func TestIndexesAgreeUnderChurn(t *testing.T) {
	const capacity = 16
	c := New(capacity)
	if len(c.shards) != 1 {
		t.Fatalf("%d shards, want 1", len(c.shards))
	}
	s := &c.shards[0]
	// Twelve objects whose hashes share their top bits: they crowd three
	// adjacent positions of the index, the last and the first two, so
	// their probe runs overlap and wrap around its end, and every removal
	// must shift a run back.
	var objects []uint64
	for o := uint64(0); len(objects) < 12; o++ {
		if top := (o * fib) >> 59; top == 31 || top <= 1 {
			objects = append(objects, o)
		}
	}
	rng := rand.New(rand.NewSource(1))
	version := []byte("v")
	current := func([]byte) (uint64, bool) { return 1, true }
	results := [][]byte{[]byte("r"), make([]byte, 100), make([]byte, resultRetainMax+1)}
	var model []churnKey // most recent first
	drop := func(match func(churnKey) bool) {
		kept := model[:0]
		for _, k := range model {
			if !match(k) {
				kept = append(kept, k)
			}
		}
		model = kept
	}
	for step := 0; step < 5000; step++ {
		result := results[step%len(results)]
		k := churnKey{object: objects[rng.Intn(len(objects))], argsHash: uint64(rng.Intn(4))}
		switch op := rng.Intn(10); {
		case op < 6:
			if op < 3 {
				c.Store(k.object, "m", k.argsHash, result, nil)
			} else {
				storeFresh(c, k.object, k.argsHash, result, 1)
			}
			drop(func(m churnKey) bool { return m == k })
			model = append([]churnKey{k}, model...)
			if len(model) > capacity {
				model = model[:capacity]
			}
		case op < 8:
			_, _, ok := c.LookupAt(new([]byte), k.object, k.argsHash, version, current)
			at := -1
			for i, m := range model {
				if m == k {
					at = i
				}
			}
			if ok != (at >= 0) {
				t.Fatalf("step %d: lookup of %v hit=%v, but the model holds it at %d", step, k, ok, at)
			}
			if ok {
				copy(model[1:at+1], model[:at])
				model[0] = k
			}
			if op == 7 && ok {
				// A failed validation drops the entry, of either kind.
				if rng.Intn(2) == 0 {
					c.Store(k.object, "m", k.argsHash, result, []ReadDep{{Key: []byte("k"), ValueHash: 2}})
				} else {
					storeFresh(c, k.object, k.argsHash, result, 2)
				}
				if _, _, hit := c.LookupAt(new([]byte), k.object, k.argsHash, version, current); hit {
					t.Fatalf("step %d: a stale entry validated", step)
				}
				model = model[1:]
			}
		default:
			c.InvalidateObject(k.object)
			drop(func(m churnKey) bool { return m.object == k.object })
		}
		checkIndexes(t, step, s, model)
	}
}

// checkIndexes compares a shard's ring, index, chains and free list with
// model, most recent first. A free slot may keep an emptied result buffer
// up to resultRetainMax.
func checkIndexes(t *testing.T, step int, s *shard, model []churnKey) {
	t.Helper()
	reached := make(map[int32]bool)
	var ring []churnKey
	if s.head != none {
		for i := s.head; ; {
			e := &s.slab[i]
			reached[i] = true
			if s.slab[e.next].prev != i {
				t.Fatalf("step %d: LRU ring links disagree at slot %d", step, i)
			}
			if got := s.lookup(e.object, e.argsHash); got != i {
				t.Fatalf("step %d: slot %d is in the ring, but the index finds slot %d", step, i, got)
			}
			ring = append(ring, churnKey{e.object, e.argsHash})
			if i = e.next; i == s.head || len(ring) > len(s.slab) {
				break
			}
		}
	}
	if fmt.Sprint(ring) != fmt.Sprint(model) {
		t.Fatalf("step %d: LRU order %v, want %v", step, ring, model)
	}
	chained := 0
	objects := make(map[uint64]bool)
	for pos, v := range s.index {
		if v == 0 {
			continue
		}
		obj := s.slab[v-1].object
		if objects[obj] {
			t.Fatalf("step %d: object %d is indexed twice", step, obj)
		}
		objects[obj] = true
		if at, head := s.find(obj); at != pos || head != v-1 {
			t.Fatalf("step %d: object %d sits at %d, but a probe from its home stops at %d", step, obj, pos, at)
		}
		for i := v - 1; i != none; i = s.slab[i].objNext {
			if !reached[i] || s.slab[i].object != obj {
				t.Fatalf("step %d: object %d's chain holds slot %d, not a ring entry of it", step, obj, i)
			}
			if chained++; chained > len(s.slab) {
				t.Fatalf("step %d: object %d's chain loops", step, obj)
			}
		}
	}
	if chained != len(model) || int(s.live) != len(model) {
		t.Fatalf("step %d: %d chained, %d counted live, want %d", step, chained, s.live, len(model))
	}
	free := 0
	for i := s.free; i != none; i = s.slab[i].next {
		e := &s.slab[i]
		if reached[i] {
			t.Fatalf("step %d: free slot %d is reachable from the ring or a chain", step, i)
		}
		if e.prev != none || e.objNext != none || (s.readSets != nil && s.readSets[i] != nil) {
			t.Fatalf("step %d: free slot %d keeps links or a read set", step, i)
		}
		if len(e.result) != 0 || cap(e.result) > resultRetainMax {
			t.Fatalf("step %d: free slot %d keeps a result of %d bytes in a buffer of %d", step, i, len(e.result), cap(e.result))
		}
		if free++; free > len(s.slab) {
			t.Fatalf("step %d: the free list loops", step)
		}
	}
	if len(model)+free != len(s.slab) || len(s.slab) > int(s.capacity) {
		t.Fatalf("step %d: %d live and %d free slots in a slab of %d, capacity %d", step, len(model), free, len(s.slab), s.capacity)
	}
}
