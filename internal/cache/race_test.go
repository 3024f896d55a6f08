package cache

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadersWithInvalidatingWriter exercises the sharded cache
// under the read-path's real access pattern — many readers doing
// Lookup/Store while a writer mutates dependencies and invalidates
// objects — and asserts no stale result is ever served. Run under -race
// (make race), this is also the lock-striping correctness check.
func TestConcurrentReadersWithInvalidatingWriter(t *testing.T) {
	c := NewSharded(4096, 8, nil)
	st := newFakeStore()

	const objects = 64
	key := func(obj uint64) []byte { return []byte(fmt.Sprintf("k%d", obj)) }
	// version tracks the committed generation of each object; the cached
	// result encodes the generation it was computed at.
	var version [objects]atomic.Uint64
	result := func(obj uint64, v uint64) []byte {
		return []byte(fmt.Sprintf("obj%d@%d", obj, v))
	}
	for i := uint64(0); i < objects; i++ {
		st.put(string(key(i)), result(i, 0))
	}

	stop := make(chan struct{})
	var stale atomic.Uint64
	var wg sync.WaitGroup
	const readsPerReader = 3000
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < r+readsPerReader; i++ {
				obj := uint64(i % objects)
				// The generation read before the lookup is a lower bound on
				// what a valid cached result may reflect.
				floor := version[obj].Load()
				if res, ok := c.Lookup(obj, "m", 1, st.hash); ok {
					var got uint64
					fmt.Sscanf(string(res), fmt.Sprintf("obj%d@%%d", obj), &got)
					if got < floor {
						stale.Add(1)
					}
					continue
				}
				// Miss: recompute from the store (the invocation path) and
				// populate.
				k := key(obj)
				st.mu.Lock()
				val := append([]byte(nil), st.vals[string(k)]...)
				st.mu.Unlock()
				c.Store(obj, "m", 1, val, []ReadDep{{Key: k, ValueHash: HashValue(val, true)}})
			}
		}(r)
	}

	// Writer, repeating the commit path's ordering until every reader
	// finishes its quota: update the store, invalidate, and only then
	// publish the new version — a reader that observes version v is
	// therefore guaranteed the store held v (and the invalidation ran)
	// before its lookup.
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		var vers [objects]uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			obj := uint64(i % objects)
			v := vers[obj] + 1
			vers[obj] = v
			st.put(string(key(obj)), result(obj, v))
			c.InvalidateObject(obj)
			version[obj].Store(v)
		}
	}()
	wg.Wait()
	close(stop)
	wwg.Wait()

	if n := stale.Load(); n != 0 {
		t.Fatalf("%d stale results served during concurrent invalidation", n)
	}
	s := c.Stats()
	if s.Misses == 0 || s.Stores == 0 {
		t.Fatalf("degenerate run: stats %+v", s)
	}

	// Race-free invalidation check (the race above may remove every
	// entry via failed validation before the writer reaches it): a live
	// entry dropped by InvalidateObject must count and must stop hitting.
	c.InvalidateObject(7) // flush entries left over from the race phase
	before := c.Stats().Invalidations
	c.Store(7, "m", 9, []byte("r"), []ReadDep{{Key: key(7), ValueHash: st.hash(key(7))}})
	c.InvalidateObject(7)
	if got := c.Stats().Invalidations; got != before+1 {
		t.Fatalf("Invalidations = %d, want %d", got, before+1)
	}
	if _, ok := c.Lookup(7, "m", 9, st.hash); ok {
		t.Fatal("hit after InvalidateObject")
	}
}

// TestStatsMergeDuringChurn verifies Stats() (which locks one shard at a
// time) is safe to call while every shard is being written.
func TestStatsMergeDuringChurn(t *testing.T) {
	c := NewSharded(1024, 8, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				obj := uint64(i*4 + r)
				c.Store(obj, "m", uint64(i), []byte("x"), nil)
				c.NoteBypass()
				c.InvalidateObject(obj)
			}
		}(r)
	}
	for i := 0; i < 200; i++ {
		s := c.Stats()
		if s.Stores < s.Invalidations {
			t.Fatalf("incoherent stats: %+v", s)
		}
	}
	close(stop)
	wg.Wait()
}

// TestReusedEntriesServeTheirOwnObject runs readers that rotate 64 objects
// through a one-shard cache of 16 entries, so that nearly every store evicts
// and reuses a slot, while a writer bumps the objects' versions and
// invalidates them. A hit must return its own object's result at that
// object's current version: no older than the version published before the
// lookup, no newer than the state after it. Run under -race (make race),
// this is the check that a reused slot is never read outside the lock.
func TestReusedEntriesServeTheirOwnObject(t *testing.T) {
	c := New(16)
	if len(c.shards) != 1 {
		t.Fatalf("%d shards, want 1", len(c.shards))
	}
	const objects = 64
	// state is each object's committed version, which its version key (the
	// object ID) reads; published trails it by the invalidation.
	var state, published [objects]atomic.Uint64
	readHash := func(key []byte) (uint64, bool) {
		return state[binary.BigEndian.Uint64(key)].Load(), true
	}

	stop := make(chan struct{})
	var wrong atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var key [8]byte // the reader's scratch, rebuilt for every lookup
			for i := r; i < r+2000; i++ {
				obj := uint64(i % objects)
				floor := published[obj].Load()
				binary.BigEndian.PutUint64(key[:], obj)
				if res, epoch, hit := c.LookupAt(new([]byte), obj, 1, key[:], readHash); hit {
					gotObj, gotVersion := binary.BigEndian.Uint64(res), binary.BigEndian.Uint64(res[8:])
					if ceil := state[obj].Load(); gotObj != obj || gotVersion < floor || gotVersion > ceil {
						wrong.Add(1)
					}
				} else {
					// Execute on the current state, then store.
					v := state[obj].Load()
					result := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, obj), v)
					c.StoreAt(obj, 1, result, v, epoch)
				}
			}
		}(r)
	}
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// A commit: change the state, invalidate, then publish.
			obj := uint64(i*7) % objects
			v := state[obj].Add(1)
			c.InvalidateObject(obj)
			published[obj].Store(v)
		}
	}()
	wg.Wait()
	close(stop)
	wwg.Wait()

	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d hits returned another object's result or a stale version", n)
	}
	if s := c.Stats(); s.Hits == 0 || s.Evictions == 0 {
		t.Fatalf("degenerate run: stats %+v", s)
	}
}

// TestHitBytesSurviveSlotReuse: a hit's bytes are the reader's own. Readers
// keep every result their hits appended, while a refiller invalidates and
// re-stores the same one-shard cache of 16 slots over 64 objects, so that
// nearly every store reuses the buffer of a slot some reader hit, with a
// different result of the same length. Every kept result must still read
// as it did when it was hit. Run under -race (make race), a hit that hands
// out a slot's buffer is also a reported race.
func TestHitBytesSurviveSlotReuse(t *testing.T) {
	c := New(16)
	if len(c.shards) != 1 {
		t.Fatalf("%d shards, want 1", len(c.shards))
	}
	const objects, resultLen = 64, 256
	// result is object obj's result at generation gen: both, then a fill
	// byte both determine, so any overwrite by another result shows.
	result := func(dst []byte, obj, gen uint64) []byte {
		dst = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(dst, obj), gen)
		for len(dst) < resultLen {
			dst = append(dst, byte(obj*31+gen))
		}
		return dst
	}
	always := func([]byte) (uint64, bool) { return 0, true }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var gens [objects]uint64
		buf := make([]byte, 0, resultLen)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 0 {
				c.InvalidateObject((i - 1) * 7 % objects) // the last one stored
			}
			obj := i * 7 % objects
			gens[obj]++
			// The refiller reuses its own buffer too: the cache copies.
			c.Store(obj, "m", 1, result(buf[:0], obj, gens[obj]), nil)
		}
	}()

	type kept struct {
		obj, gen uint64
		bytes    []byte
	}
	var bad atomic.Uint64
	readers := make([][]kept, 4)
	var rwg sync.WaitGroup
	for r := range readers {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := r; len(readers[r]) < 2000 && i < r+200000; i++ {
				obj := uint64(i % objects)
				dst := make([]byte, 0, resultLen)
				res, _, hit := c.LookupAt(&dst, obj, 1, nil, always)
				if !hit {
					continue
				}
				k := kept{obj: binary.BigEndian.Uint64(res), gen: binary.BigEndian.Uint64(res[8:]), bytes: res}
				if k.obj != obj || string(res) != string(result(nil, k.obj, k.gen)) {
					bad.Add(1)
				}
				readers[r] = append(readers[r], k)
			}
		}(r)
	}
	rwg.Wait()
	// Let the refiller rewrite every slot a few more times before the kept
	// results are read back.
	for s := c.Stats().Stores + 4*objects; c.Stats().Stores < s; {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	if n := bad.Load(); n != 0 {
		t.Fatalf("%d hits returned a result other than their own object's", n)
	}
	hits := 0
	for _, rs := range readers {
		for _, k := range rs {
			if string(k.bytes) != string(result(nil, k.obj, k.gen)) {
				t.Fatalf("object %d's result at generation %d changed after its hit", k.obj, k.gen)
			}
		}
		hits += len(rs)
	}
	if s := c.Stats(); hits == 0 || s.Evictions == 0 || s.Invalidations == 0 {
		t.Fatalf("degenerate run: %d hits kept, stats %+v", hits, s)
	}
}

// TestRemovedLargeResultIsNotRetained: a slot keeps its emptied buffer for
// the next store only up to resultRetainMax, so a 1 MB result leaves the
// live heap once it is invalidated or evicted.
func TestRemovedLargeResultIsNotRetained(t *testing.T) {
	// storeCopied stores a 1 MB result for object 1 and reports whether
	// its slot holds a buffer of its own that size.
	storeCopied := func(c *Cache) bool {
		result := make([]byte, 1<<20)
		c.Store(1, "m", 0, result, nil)
		s := c.shardFor(1)
		s.mu.Lock()
		defer s.mu.Unlock()
		i := s.lookup(1, 0)
		return i != none && cap(s.slab[i].result) >= len(result) && &s.slab[i].result[0] != &result[0]
	}
	for _, how := range []string{"invalidated", "evicted"} {
		c := New(16)
		c.Store(99, "m", 0, make([]byte, 16), nil) // the shard's slab and index exist
		base := liveHeap()
		if !storeCopied(c) {
			t.Fatalf("%s: the slot holds no 1 MB buffer of its own after storing 1 MB: it did not copy the result", how)
		}
		if how == "invalidated" {
			c.InvalidateObject(1)
		} else {
			for obj := uint64(100); obj < 116; obj++ {
				c.Store(obj, "m", 0, make([]byte, 16), nil)
			}
			if _, ok := c.Lookup(1, "m", 0, func([]byte) uint64 { return 0 }); ok {
				t.Fatalf("%s: the 1 MB entry was not evicted", how)
			}
		}
		if held := liveHeap() - base; held > 64<<10 {
			t.Fatalf("%s: the cache still holds %d B of a removed 1 MB result", how, held)
		}
		runtime.KeepAlive(c)
	}
}
