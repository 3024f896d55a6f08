package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/rpc"
)

// TestLeaseRenewalLossBouncesReads drives the full lease lifecycle
// through the fault plane: a backup serves reads while renewals flow,
// bounces them to the primary once renewals are dropped and the lease
// expires, and serves again after renewals resume.
func TestLeaseRenewalLossBouncesReads(t *testing.T) {
	const ttl = 120 * time.Millisecond
	nodes, dir := startStatic(t, NodeOptions{LeaseTTL: ttl}, 3)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, 1, 5)

	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	backup := nodes[1]

	// Leased steady state: the backup answers a direct replica read.
	if v := readAt(t, pool, backup.Addr(), 1); v != 5 {
		t.Fatalf("leased backup read = %d, want 5", v)
	}
	if backup.Metrics().Counter("reads.backup_served").Value() == 0 {
		t.Fatal("reads.backup_served did not move for a served replica read")
	}

	// Cut every renewal path: no standalone renewals, and no writes flow
	// so no frame piggybacks either. The lease must expire on its own
	// and the backup must start bouncing.
	fault.Add(fault.Rule{Site: fault.SiteLeaseRenew, Action: fault.Drop})
	t.Cleanup(fault.Reset)
	deadline := time.Now().Add(10 * ttl)
	for {
		_, err := directInvoke(pool, backup.Addr(), 1, "get", nil, true)
		if _, bounced := ParseNotResponsible(err); bounced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backup kept serving reads after renewals stopped")
		}
		time.Sleep(ttl / 8)
	}
	if backup.Metrics().Counter("lease.expired").Value() == 0 {
		t.Fatal("lease.expired did not count the expiry")
	}
	if backup.Metrics().Counter("reads.primary_bounced").Value() == 0 {
		t.Fatal("reads.primary_bounced did not count the bounce")
	}
	// The client still reads consistently throughout — via the primary.
	if v, err := c.InvokeRead(1, "get", nil); err != nil || core.BytesI64(v) != 5 {
		t.Fatalf("client read while unleased = %v, %v", v, err)
	}

	// Renewals resume; the backup regains a lease and serves again.
	fault.Reset()
	if v := readAt(t, pool, backup.Addr(), 1); v != 5 {
		t.Fatalf("re-leased backup read = %d, want 5", v)
	}
}

// quietCounterType is counterType with nothing declared about "get":
// module analysis alone must classify it routable-read-only.
func quietCounterType(t *testing.T) *core.ObjectType {
	t.Helper()
	base := counterType(t)
	typ, err := core.NewObjectType("QuietCounter",
		[]core.FieldDef{{Name: "count", Kind: core.FieldValue}},
		[]core.MethodInfo{{Name: "add"}, {Name: "get"}},
		base.Module)
	if err != nil {
		t.Fatalf("type: %v", err)
	}
	return typ
}

// TestInferredReadOnlyServedAtBackup covers the routing fix for provably
// read-only methods: a method never declared ReadOnly whose reachable
// call graph cannot mutate is (a) classified at validation time and (b)
// served by a leased backup even when the request arrives un-flagged
// through the write route, while genuinely mutating methods still bounce.
func TestInferredReadOnlyServedAtBackup(t *testing.T) {
	typ := quietCounterType(t)
	if m, ok := typ.Method("get"); !ok || !m.RoutableReadOnly() {
		t.Fatal("undeclared read-only method not inferred routable")
	}
	if m, ok := typ.Method("add"); !ok || m.RoutableReadOnly() {
		t.Fatal("mutating method classified routable-read-only")
	}

	nodes, dir := startStatic(t, NodeOptions{LeaseTTL: 150 * time.Millisecond}, 3)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("QuietCounter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, 1, 7)

	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	backup := nodes[2]

	// Un-flagged invocation of the inferred-read-only method at a backup:
	// a stale-directory client would send exactly this. The backup must
	// serve it under its lease rather than bounce (retry through the
	// pre-first-grant window).
	deadline := time.Now().Add(3 * time.Second)
	for {
		res, err := directInvoke(pool, backup.Addr(), 1, "get", nil, false)
		if err == nil {
			if core.BytesI64(res) != 7 {
				t.Fatalf("backup served get = %d, want 7", core.BytesI64(res))
			}
			break
		}
		if _, bounced := ParseNotResponsible(err); !bounced || time.Now().After(deadline) {
			t.Fatalf("inferred read-only invoke at backup: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if backup.Metrics().Counter("reads.backup_served").Value() == 0 {
		t.Fatal("downgraded invoke not counted as backup-served")
	}

	// The mutating method must still bounce to the primary, lease or not.
	if _, err := directInvoke(pool, backup.Addr(), 1, "add", [][]byte{core.I64Bytes(1)}, false); err == nil {
		t.Fatal("backup executed a mutating invoke")
	} else if hint, bounced := ParseNotResponsible(err); !bounced || hint != nodes[0].Addr() {
		t.Fatalf("mutating invoke at backup: %v (hint %q)", err, hint)
	}
}

// TestLeasedReadsDuringWrites hammers leased replica reads concurrently
// with a writer and checks the lease's consistency contract under the
// race detector: a read that starts after a write is acknowledged
// observes that write, wherever it is served.
func TestLeasedReadsDuringWrites(t *testing.T) {
	_, dir := startStatic(t, NodeOptions{LeaseTTL: 150 * time.Millisecond}, 3)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}

	const writes = 150
	var acked atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= writes; i++ {
			if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(1)}); err != nil {
				errc <- err
				return
			}
			acked.Store(i)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for acked.Load() < writes {
				floor := acked.Load()
				res, err := c.InvokeRead(1, "get", nil)
				if err != nil {
					errc <- err
					return
				}
				if got := core.BytesI64(res); got < floor {
					errc <- &staleReadError{got: got, floor: floor}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if res, err := c.InvokeRead(1, "get", nil); err != nil || core.BytesI64(res) != writes {
		t.Fatalf("final read = %v, %v; want %d", res, err, writes)
	}
}

type staleReadError struct{ got, floor int64 }

func (e *staleReadError) Error() string {
	return fmt.Sprintf("stale leased read: got %d after ack floor %d", e.got, e.floor)
}

// TestLeasedBackupCachedReadSeesPrimaryCommit: a leased backup answers a
// repeated read from its result cache, validated by the object's version
// key; a commit at the primary reaches the backup as a replicated write-set,
// and the same backup's next read must execute again and return the new
// value.
func TestLeasedBackupCachedReadSeesPrimaryCommit(t *testing.T) {
	nodes, dir := startStatic(t, NodeOptions{
		LeaseTTL: 150 * time.Millisecond,
		Runtime:  core.Options{CacheEntries: 64},
	}, 3)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, 1, 5)

	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	backup := nodes[1]
	cached := backup.Runtime().Cache()
	if v := readAt(t, pool, backup.Addr(), 1); v != 5 { // executes and stores
		t.Fatalf("backup read = %d, want 5", v)
	}
	before := cached.Stats()
	if v := readAt(t, pool, backup.Addr(), 1); v != 5 {
		t.Fatalf("repeated backup read = %d, want 5", v)
	}
	if after := cached.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("repeated backup read did not hit its cache: %+v -> %+v", before, after)
	}

	mustAdd(t, c, 1, 3) // acknowledged: every backup has applied it
	before = cached.Stats()
	if v := readAt(t, pool, backup.Addr(), 1); v != 8 {
		t.Fatalf("backup read after the primary's commit = %d, want 8", v)
	}
	after := cached.Stats()
	if after.Hits != before.Hits || after.Misses+after.Validations == before.Misses+before.Validations {
		t.Fatalf("backup read after the commit did not re-execute: %+v -> %+v", before, after)
	}
	if backup.Metrics().Counter("reads.backup_served").Value() < 3 {
		t.Fatal("the reads were not served by the backup")
	}
}
