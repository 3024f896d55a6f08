package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// versionDep is a read set shaped like the runtime's: one dependency, an
// object's version key.
func versionDep(obj uint64) []ReadDep {
	key := []byte(fmt.Sprintf("\x02obj-%08d\x05", obj))
	return []ReadDep{{Key: key, ValueHash: HashValue(key, true)}}
}

// TestStoreAtCapacityAllocatesNothing guards a cache miss's store: at
// capacity it reuses the entry it evicts, and after an InvalidateObject the
// entry the invalidation freed, so neither allocates. Its LRU and per-object
// links are an entry's own fields, a one-dependency read set is copied into
// it, and the result is kept rather than copied. A read set that does not
// fit inside an entry costs one slice and one slab of keys.
func TestStoreAtCapacityAllocatesNothing(t *testing.T) {
	c := New(64)
	result := make([]byte, 4960)
	deps := make([][]ReadDep, 256)
	for i := range deps {
		deps[i] = versionDep(uint64(i))
	}
	next := 0
	store := func() {
		c.Store(uint64(next), "get_timeline", 40, result, deps[next%len(deps)])
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
	// store goes to, so the store reuses the entry the invalidation freed
	// and evicts nothing.
	evictions := c.Stats().Evictions
	invalidateThenStore := func() {
		c.InvalidateObject(c.shardFor(uint64(next)).lru.prev.key.object)
		store()
	}
	if allocs := testing.AllocsPerRun(1000, invalidateThenStore); allocs != 0 {
		t.Fatalf("a store after InvalidateObject allocates %.1f objects, want 0", allocs)
	}
	if got := c.Stats().Evictions; got != evictions {
		t.Fatalf("%d stores after an invalidation evicted: they did not reuse the freed entries", got-evictions)
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

// TestStoreKeepsResultCopiesReadSet pins the ownership Store documents: a
// hit returns the very bytes that were stored, clipped so an append cannot
// reach past them, and the read set is the cache's own copy, so the caller
// may reuse its key buffer at once.
func TestStoreKeepsResultCopiesReadSet(t *testing.T) {
	for _, keyLen := range []int{3, inlineKey, inlineKey + 1} {
		c := New(16)
		result := make([]byte, 5, 64)
		key := make([]byte, keyLen)
		for i := range key {
			key[i] = 'k'
		}
		want := string(key)
		c.Store(1, "m", 0, result, []ReadDep{{Key: key, ValueHash: 9}})
		for i := range key {
			key[i] = 'x' // the caller's scratch, reused for the next invocation
		}
		var seen []string
		res, ok := c.Lookup(1, "m", 0, func(k []byte) uint64 {
			seen = append(seen, string(k))
			return 9
		})
		if !ok {
			t.Fatalf("key of %d bytes: the stored entry did not validate", keyLen)
		}
		if len(seen) != 1 || seen[0] != want {
			t.Fatalf("key of %d bytes: validated %q, want [%q]", keyLen, seen, want)
		}
		if &res[0] != &result[0] || cap(res) != len(result) {
			t.Fatalf("key of %d bytes: a hit returned a copy or an unclipped slice (cap %d)", keyLen, cap(res))
		}
	}
}

// TestIndexesAgreeUnderChurn drives one shard with a seeded mix of stores,
// lookups that fail validation, invalidations and evictions, and after each
// step checks that the three indexes — the key map, the LRU ring and the
// per-object chains — hold the same entries, that the ring's order is a
// reference model's, and that the free list holds only entries none of the
// indexes reaches, with live and free entries within capacity.
func TestIndexesAgreeUnderChurn(t *testing.T) {
	const capacity = 16
	c := New(capacity)
	if len(c.shards) != 1 {
		t.Fatalf("%d shards, want 1", len(c.shards))
	}
	s := c.shards[0]
	rng := rand.New(rand.NewSource(1))
	var model []entryKey // most recent first
	drop := func(match func(entryKey) bool) {
		kept := model[:0]
		for _, k := range model {
			if !match(k) {
				kept = append(kept, k)
			}
		}
		model = kept
	}
	for step := 0; step < 5000; step++ {
		k := entryKey{object: uint64(rng.Intn(12)), method: "m", argsHash: uint64(rng.Intn(4))}
		switch op := rng.Intn(10); {
		case op < 6:
			c.Store(k.object, k.method, k.argsHash, []byte("r"), nil)
			drop(func(m entryKey) bool { return m == k })
			model = append([]entryKey{k}, model...)
			if len(model) > capacity {
				model = model[:capacity]
			}
		case op < 8:
			stale := op == 7
			_, ok := c.Lookup(k.object, k.method, k.argsHash, func([]byte) uint64 { return 0 })
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
			if stale && ok {
				// A failed validation drops the entry.
				c.Store(k.object, k.method, k.argsHash, []byte("r"), []ReadDep{{Key: []byte("v"), ValueHash: 1}})
				model = append([]entryKey{k}, model[1:]...)
				if _, hit := c.Lookup(k.object, k.method, k.argsHash, func([]byte) uint64 { return 0 }); hit {
					t.Fatalf("step %d: a stale entry validated", step)
				}
				model = model[1:]
			}
		default:
			c.InvalidateObject(k.object)
			drop(func(m entryKey) bool { return m.object == k.object })
		}
		checkIndexes(t, step, s, model)
	}
}

// checkIndexes compares a shard's three indexes with model, most recent
// first, and checks its free list against them.
func checkIndexes(t *testing.T, step int, s *shard, model []entryKey) {
	t.Helper()
	reached := make(map[*entry]bool)
	for _, e := range s.entries {
		reached[e] = true
	}
	var ring []entryKey
	for e := s.lru.next; e != &s.lru; e = e.next {
		reached[e] = true
		if e.next.prev != e {
			t.Fatalf("step %d: LRU ring links disagree at %v", step, e.key)
		}
		if s.entries[e.key] != e {
			t.Fatalf("step %d: %v is in the ring but not the map", step, e.key)
		}
		ring = append(ring, e.key)
	}
	if fmt.Sprint(ring) != fmt.Sprint(model) {
		t.Fatalf("step %d: LRU order %v, want %v", step, ring, model)
	}
	chained := 0
	for obj, head := range s.byObject {
		if head == nil || head.objPrev != nil {
			t.Fatalf("step %d: object %d's chain has no proper head", step, obj)
		}
		for e := head; e != nil; e = e.objNext {
			reached[e] = true
			if e.key.object != obj || s.entries[e.key] != e {
				t.Fatalf("step %d: object %d's chain holds %v", step, obj, e.key)
			}
			if e.objNext != nil && e.objNext.objPrev != e {
				t.Fatalf("step %d: object %d's chain links disagree", step, obj)
			}
			chained++
		}
	}
	if len(s.entries) != len(model) || chained != len(model) {
		t.Fatalf("step %d: %d in the map, %d chained, want %d", step, len(s.entries), chained, len(model))
	}
	free := 0
	for e := s.free; e != nil; e = e.next {
		if reached[e] {
			t.Fatalf("step %d: a free entry is reachable from the map, the ring or a chain", step)
		}
		if e.prev != nil || e.objPrev != nil || e.objNext != nil || e.result != nil || e.readSet != nil {
			t.Fatalf("step %d: a free entry keeps links or a result", step)
		}
		if free++; len(s.entries)+free > s.capacity {
			t.Fatalf("step %d: %d live and %d or more free entries, capacity %d", step, len(s.entries), free, s.capacity)
		}
	}
}
