package core

import (
	"sync"
	"testing"
)

// TestNoStaleReadAfterCommit is the read-path staleness guarantee: a
// commit to object X is never followed by a read of X that sees the
// pre-commit state, whether or not the read is served from the consistent
// result cache. Concurrent readers keep the cache hot and racing while the
// writer commits.
func TestNoStaleReadAfterCommit(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{CacheEntries: 1024})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Concurrent cached reads; the value is validated by the
				// writer's assertions below, here we only require success.
				if _, err := rt.Invoke(1, "get", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	total := int64(0)
	for i := 0; i < 300; i++ {
		mustInvoke(t, rt, 1, "add", I64Bytes(1))
		total++
		// The read issued after the commit returned must see it: any
		// cached result from before the commit is stale.
		if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != total {
			t.Fatalf("read after commit %d returned %d (stale cache)", total, got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestReadFastPathAllocBound guards the read-only fast path's allocation
// budget (pooled transaction, no write buffer, pooled VM instance with
// dirty-region reset). A regression to the write path's eager maps or to
// full re-instantiation shows up as extra allocs/op.
func TestReadFastPathAllocBound(t *testing.T) {
	// No result cache: every invocation must execute and take the
	// read-txn path (a cache hit would skip it entirely).
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, rt, 1, "add", I64Bytes(5))

	// Warm the instance pool.
	for i := 0; i < 8; i++ {
		mustInvoke(t, rt, 1, "get")
	}

	args := [][]byte{}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := rt.Invoke(1, "get", args); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 2: the snapshot and the result copied out of guest memory.
	// The invocation context, its txn and its key/value scratch are pooled,
	// the scheduler recycles its lock entries, and the point read copies
	// into that scratch. A regression to per-call scratch, to the write
	// path's eager maps or to per-invocation instantiation shows up well
	// above.
	const bound = 2 + 2
	if allocs > bound {
		t.Fatalf("read-only invoke allocs/op = %.1f, want <= %d", allocs, bound)
	}
}
