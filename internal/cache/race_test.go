package cache

import (
	"fmt"
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

	// Deterministic invalidation check (the race above may remove every
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
