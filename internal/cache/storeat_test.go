package cache

import (
	"runtime"
	"sync"
	"testing"
)

// TestFailedValidationReadNeverHits: a validator that could not read a
// dependency reports ok=false, and that is a miss even when the fingerprint
// it returned happens to equal the stored one (the "absent" fingerprint is
// what a failed read used to look like).
func TestFailedValidationReadNeverHits(t *testing.T) {
	c := New(16)
	absent := HashValue(nil, false)
	c.Store(1, "m", 7, []byte("res"), []ReadDep{{Key: []byte("k"), ValueHash: absent}})

	failing := func([]byte) (uint64, bool) { return absent, false }
	if _, _, hit := c.LookupAt(1, 7, nil, failing); hit {
		t.Fatal("an entry validated through a failed read")
	}
	if s := c.Stats(); s.Hits != 0 || s.Validations != 1 {
		t.Fatalf("stats after the failed validation: %+v", s)
	}
	// The entry went with the failed validation: a working validator misses.
	working := func([]byte) (uint64, bool) { return absent, true }
	if _, _, hit := c.LookupAt(1, 7, nil, working); hit {
		t.Fatal("entry survived a failed validation")
	}

	// The same holds for an entry StoreAt made, validated through the
	// version key.
	version := []byte("version")
	_, epoch, _ := c.LookupAt(1, 7, version, working)
	c.StoreAt(1, 7, []byte("res"), absent, epoch)
	if _, _, hit := c.LookupAt(1, 7, version, failing); hit {
		t.Fatal("a StoreAt entry validated through a failed read")
	}
	if _, _, hit := c.LookupAt(1, 7, version, working); hit {
		t.Fatal("StoreAt entry survived a failed validation")
	}
}

// TestStoreAtDropsResultAnInvalidationOvertook is the interleaving a version
// check alone cannot see: a reader misses and executes on its snapshot, the
// object is invalidated underneath it (deleted, re-created and driven back
// to the same version), and only then does the reader store.
func TestStoreAtDropsResultAnInvalidationOvertook(t *testing.T) {
	c := New(16)
	version, three := []byte("version"), HashValue([]byte{3}, true)
	sameVersion := func(key []byte) (uint64, bool) {
		if string(key) != "version" {
			t.Fatalf("validated key %q, want the version key", key)
		}
		return three, true
	}

	_, epoch, hit := c.LookupAt(1, 7, version, sameVersion)
	if hit {
		t.Fatal("hit on empty cache")
	}
	c.InvalidateObject(1) // no entry to drop yet; the reader is still executing
	c.StoreAt(1, 7, []byte("predecessor's value"), three, epoch)
	if c.Len() != 0 {
		t.Fatal("StoreAt planted a result computed before the invalidation")
	}
	if _, _, hit := c.LookupAt(1, 7, version, sameVersion); hit {
		t.Fatal("the overtaken result validated")
	}

	// Without an invalidation in between, the same sequence stores and hits;
	// an entry dropped by validation hands out a current epoch too.
	_, epoch, _ = c.LookupAt(1, 7, version, sameVersion)
	c.StoreAt(1, 7, []byte("current"), three, epoch)
	if res, _, hit := c.LookupAt(1, 7, version, sameVersion); !hit || string(res) != "current" {
		t.Fatalf("lookup after an undisturbed StoreAt = %q, %v", res, hit)
	}
	moved := func([]byte) (uint64, bool) { return 0, true }
	_, epoch, hit = c.LookupAt(1, 7, version, moved)
	if hit {
		t.Fatal("moved version validated")
	}
	c.StoreAt(1, 7, []byte("recomputed"), three, epoch)
	if res, _, hit := c.LookupAt(1, 7, version, sameVersion); !hit || string(res) != "recomputed" {
		t.Fatalf("lookup after re-execution = %q, %v", res, hit)
	}
}

// TestStoreAtRacesInvalidation runs readers (miss → execute → StoreAt)
// against a committer under the race detector. Results are tagged with the
// state generation they were computed on, so once a commit has changed the
// state and invalidated, anything the cache serves must carry the new tag.
func TestStoreAtRacesInvalidation(t *testing.T) {
	c := New(64)
	const object = 9
	version := []byte("v")
	valid := func([]byte) (uint64, bool) { return 1, true }

	var generation struct {
		sync.Mutex
		n byte
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
				_, epoch, hit := c.LookupAt(object, 1, version, valid)
				if hit {
					continue
				}
				// "Execute": observe the generation after the miss, as an
				// invocation pins its snapshot after the lookup.
				generation.Lock()
				seen := generation.n
				generation.Unlock()
				runtime.Gosched() // widen the window a commit can land in
				c.StoreAt(object, 1, []byte{seen}, 1, epoch)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		// A commit: change the state, then invalidate.
		generation.Lock()
		generation.n++
		generation.Unlock()
		c.InvalidateObject(object)
		runtime.Gosched() // let readers that executed before the commit store
		if res, _, hit := c.LookupAt(object, 1, version, valid); hit && res[0] != byte(i+1) {
			t.Fatalf("after commit %d the cache served generation %d", i+1, res[0])
		}
	}
	close(stop)
	wg.Wait()
}
