package core

import (
	"errors"
	"testing"

	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// A cached result is validated by its object's version key alone, so these
// tests pin the two things that rests on: every path that changes an
// object's keys moves that key, and a version that comes back to an old
// value after delete + re-create cannot revive an old result.

// cachedGet invokes a cacheable method twice and requires the first call to
// execute (no hit: whatever was cached before is gone or stale) and the
// second to be served from the cache.
func cachedGet(t *testing.T, rt *Runtime, id ObjectID, method string) []byte {
	t.Helper()
	before := rt.Cache().Stats()
	first := mustInvoke(t, rt, id, method)
	mid := rt.Cache().Stats()
	if mid.Hits != before.Hits {
		t.Fatalf("%s.%s was served from the cache, want a re-execution", id, method)
	}
	second := mustInvoke(t, rt, id, method)
	if after := rt.Cache().Stats(); after.Hits != mid.Hits+1 {
		t.Fatalf("repeated %s.%s did not hit: %+v -> %+v", id, method, mid, after)
	}
	if string(first) != string(second) {
		t.Fatalf("%s.%s: executed %x, cached %x", id, method, first, second)
	}
	return second
}

func TestEveryCommitPathMovesTheVersion(t *testing.T) {
	type writeSet struct {
		object uint64
		batch  []byte // encoded, as replication ships it
	}
	var shipped []writeSet
	primary, _ := newTestRuntime(t, Options{CacheEntries: 64,
		OnCommit: func(_ telemetry.SpanContext, obj ObjectID, _ uint64, b *store.Batch) error {
			shipped = append(shipped, writeSet{uint64(obj), b.Encode()})
			return nil
		}})
	backup, _ := newTestRuntime(t, Options{CacheEntries: 64})     // ApplyReplicated
	bulkBackup, _ := newTestRuntime(t, Options{CacheEntries: 64}) // ApplyReplicatedBulk
	replicas := []*Runtime{primary, backup, bulkBackup}
	for _, rt := range replicas {
		if err := rt.RegisterType(newAccountType(t)); err != nil {
			t.Fatal(err)
		}
	}
	// replicate applies what the step committed on the primary to both
	// backups: one write-set at a time on one, as one frame on the other
	// (each step's write-sets are for distinct objects, as a frame's are).
	decode := func(ws writeSet) *store.Batch {
		t.Helper()
		b := store.NewBatch()
		if err := b.Decode(ws.batch); err != nil {
			t.Fatal(err)
		}
		return b
	}
	replicate := func() {
		t.Helper()
		var objects []uint64
		var batches []*store.Batch
		for _, ws := range shipped {
			if err := backup.ApplyReplicated(ObjectID(ws.object), decode(ws)); err != nil {
				t.Fatal(err)
			}
			objects, batches = append(objects, ws.object), append(batches, decode(ws))
		}
		if err := bulkBackup.ApplyReplicatedBulk(objects, batches); err != nil {
			t.Fatal(err)
		}
		shipped = shipped[:0]
	}
	rawVersion := func(rt *Runtime, id ObjectID) string {
		v, err := rt.db.Get(VersionKey(id))
		if errors.Is(err, store.ErrNotFound) {
			return "absent"
		} else if err != nil {
			t.Fatal(err)
		}
		return string(v)
	}

	const gone = -1
	steps := []struct {
		name string
		do   func() error
		want map[ObjectID]int64 // balance of each object the step commits to
	}{
		{"CreateObject", func() error {
			if err := primary.CreateObject("Account", 1, CallCtx{}); err != nil {
				return err
			}
			return primary.CreateObject("Account", 2, CallCtx{})
		}, map[ObjectID]int64{1: 0, 2: 0}},
		{"invocation commit", func() error {
			_, err := primary.Invoke(1, "deposit", [][]byte{I64Bytes(100)})
			return err
		}, map[ObjectID]int64{1: 100}},
		// transfer's only commit on object 1 is the one BeginCall makes
		// before the nested deposit.
		{"commit before a nested call", func() error {
			_, err := primary.Invoke(1, "transfer", [][]byte{I64Bytes(2), I64Bytes(30)})
			return err
		}, map[ObjectID]int64{1: 70, 2: 30}},
		{"two-object transaction", func() error {
			_, err := invokeTx(primary, []TxCall{
				{Object: 1, Method: "deposit", Args: [][]byte{I64Bytes(5)}},
				{Object: 2, Method: "deposit", Args: [][]byte{I64Bytes(7)}},
			})
			return err
		}, map[ObjectID]int64{1: 75, 2: 37}},
		{"DeleteObject", func() error {
			return primary.DeleteObject(2, CallCtx{})
		}, map[ObjectID]int64{2: gone}},
	}
	for _, step := range steps {
		// Leave a cached balance for every object the step is about to
		// change, on every replica.
		before := make(map[*Runtime]map[ObjectID]string)
		for _, rt := range replicas {
			before[rt] = make(map[ObjectID]string)
			for id := range step.want {
				before[rt][id] = rawVersion(rt, id)
				if before[rt][id] != "absent" {
					mustInvoke(t, rt, id, "balance")
				}
			}
		}
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		replicate()
		for i, rt := range replicas {
			for id, want := range step.want {
				if now := rawVersion(rt, id); now == before[rt][id] {
					t.Fatalf("%s: replica %d: version key of %s still %q", step.name, i, id, now)
				}
				if want == gone {
					if _, err := rt.Invoke(id, "balance", nil); !errors.Is(err, ErrNoSuchObject) {
						t.Fatalf("%s: replica %d: balance of deleted %s: %v", step.name, i, id, err)
					}
				} else if got := BytesI64(cachedGet(t, rt, id, "balance")); got != want {
					t.Fatalf("%s: replica %d: balance of %s = %d, want %d", step.name, i, id, got, want)
				}
			}
		}
	}
}

func TestRecreatedObjectNeverServesPredecessor(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{CacheEntries: 64})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	life := func(value int64) uint64 {
		t.Helper()
		if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
			t.Fatal(err)
		}
		mustInvoke(t, rt, 1, "add", I64Bytes(value))
		if got := BytesI64(cachedGet(t, rt, 1, "get")); got != value {
			t.Fatalf("get = %d, want %d", got, value)
		}
		v, err := rt.ObjectVersion(1)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := life(5)
	if err := rt.DeleteObject(1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	// Same number of commits, so the same version — with a different value.
	if second := life(9); second != first {
		t.Fatalf("re-created object is at version %d, its predecessor was at %d: the test needs them equal", second, first)
	}
}

func TestCountIsCachedAndRefreshedByInsert(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{CacheEntries: 64})
	if err := rt.RegisterType(newNotebookType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Notebook", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	for n, tag := range []string{"color", "size", "shape"} {
		mustInvoke(t, rt, 1, "tag_set", []byte(tag), []byte("x"))
		// A scan of the object's own keys is covered by its version: the
		// count is cached, and the next insert makes it re-execute.
		if got := BytesI64(cachedGet(t, rt, 1, "tag_count")); got != int64(n+1) {
			t.Fatalf("tag_count after %d inserts = %d", n+1, got)
		}
	}
}

// TestFailedValidationReadIsAMiss: with the store closed the validation read
// fails; the invocation must fail with the store's error instead of being
// answered from the cache on the strength of a read that never happened.
func TestFailedValidationReadIsAMiss(t *testing.T) {
	rt, db := newTestRuntime(t, Options{CacheEntries: 64})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	cachedGet(t, rt, 1, "get")
	if h, ok := rt.committedHash(VersionKey(1)); !ok || h == 0 {
		t.Fatalf("committedHash on an open store = %x, %v", h, ok)
	}
	db.Close()
	if _, ok := rt.committedHash(VersionKey(1)); ok {
		t.Fatal("committedHash reported a read of a closed store as good")
	}
	before := rt.Cache().Stats()
	if _, err := rt.Invoke(1, "get", nil); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("get on a closed store: %v, want ErrClosed", err)
	}
	if after := rt.Cache().Stats(); after.Hits != before.Hits {
		t.Fatal("a failed validation read produced a cache hit")
	}
}
