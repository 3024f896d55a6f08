package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/replication"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
)

// TestLeaseRenewalLossBouncesReads drives the full lease lifecycle
// through the fault plane: a backup serves reads while renewals flow,
// bounces them to the primary once renewals are lost and the lease
// expires — though writes keep flowing to it — and serves again after
// renewals resume, with writes flowing and every read the latest acked
// value. A lost renewal holds its backup's one renewal slot until the call
// times out, so the nodes' calls time out quickly.
func TestLeaseRenewalLossBouncesReads(t *testing.T) {
	const ttl = 120 * time.Millisecond
	nodes, c := startGroups(t, NodeOptions{leaseTTL: ttl, ClientOptions: &rpc.ClientOptions{Timeout: 500 * time.Millisecond}}, 3)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, 1, 5)
	want := int64(5)

	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	backup := nodes[1]

	// Leased steady state: the backup answers a direct replica read.
	if v := readAt(t, pool, backup.Addr(), 1); v != want {
		t.Fatalf("leased backup read = %d, want %d", v, want)
	}
	if backup.Metrics().Counter("reads.backup_served").Value() == 0 {
		t.Fatal("reads.backup_served did not move for a served replica read")
	}

	// Cut the one grant path, and keep writing through the primary: the
	// applyBatch frames the backup keeps applying carry no lease. The
	// lease must expire on its own and the backup must start bouncing.
	fault.Add(fault.Rule{Site: replication.MethodLease, Action: fault.Drop})
	t.Cleanup(fault.Reset)
	deadline := time.Now().Add(10 * ttl)
	for {
		mustAdd(t, c, 1, 1)
		want++
		res, err := directInvoke(pool, backup.Addr(), 1, "get", nil)
		if _, bounced := ParseNotResponsible(err); bounced {
			break
		}
		if err != nil {
			t.Fatalf("backup read with renewals lost: %v", err)
		}
		if v := core.BytesI64(res); v != want {
			t.Fatalf("backup read with renewals lost = %d, want %d", v, want)
		}
		if time.Now().After(deadline) {
			t.Fatal("backup kept serving reads with renewals lost: a write frame renewed its lease")
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
	if v, err := c.InvokeRead(1, "get", nil); err != nil || core.BytesI64(v) != want {
		t.Fatalf("client read while unleased = %v, %v; want %d", v, err, want)
	}

	// Renewals resume; the backup regains a lease and serves again.
	fault.Reset()
	if v := readAt(t, pool, backup.Addr(), 1); v != want {
		t.Fatalf("re-leased backup read = %d, want %d", v, want)
	}
	// The renewal loop alone keeps it leased while writes flow: for 8 TTLs
	// every backup read right after an acked write answers that write's
	// value, and the lease neither expires nor bounces a read.
	expired, bounced := backup.Metrics().Counter("lease.expired"), backup.Metrics().Counter("reads.primary_bounced")
	expired0, bounced0 := expired.Value(), bounced.Value()
	for end := time.Now().Add(8 * ttl); time.Now().Before(end); time.Sleep(ttl / 10) {
		mustAdd(t, c, 1, 1)
		want++
		res, err := directInvoke(pool, backup.Addr(), 1, "get", nil)
		if err != nil {
			t.Fatalf("backup read after renewals resumed: %v", err)
		}
		if v := core.BytesI64(res); v != want {
			t.Fatalf("backup read after an acked write = %d, want %d", v, want)
		}
	}
	if d := expired.Value() - expired0; d != 0 {
		t.Fatalf("lease.expired moved by %d with renewals flowing", d)
	}
	if d := bounced.Value() - bounced0; d != 0 {
		t.Fatalf("reads.primary_bounced moved by %d with renewals flowing", d)
	}
}

// TestBackupsServeFromFirstRequest: the primary grants every backup its
// lease when the configuration sets its fan-out, with no write before the
// first read and no renewal period passed (the TTL is an hour). Each backup
// serves the first read sent to it: none bounces, and the group's servers
// take one request per read.
func TestBackupsServeFromFirstRequest(t *testing.T) {
	l := startLocal(t, quiet([]int{3}, NodeOptions{leaseTTL: time.Hour}))
	nodes, backups := l.Nodes(), l.Nodes()[1:]
	// Seed the object into every replica's store the way a bulk load does:
	// nothing is shipped.
	typ := counterType(t)
	for _, n := range nodes {
		if err := n.Runtime().RegisterType(typ); err != nil {
			t.Fatal(err)
		}
		b := store.NewBatch()
		b.Put(core.HeaderKey(1), []byte("Counter"))
		b.Put(core.VersionKey(1), core.EncodeU64(0))
		b.Put(core.ValueFieldKey(1, "count"), core.I64Bytes(7))
		if err := n.Runtime().ApplyReplicatedBulk([]uint64{1}, []*store.Batch{b}); err != nil {
			t.Fatal(err)
		}
	}
	await(t, l, 3*time.Second, "every backup's first grant", func() bool {
		for _, b := range backups {
			if !b.leases.Held() {
				return false
			}
		}
		return true
	})

	requests := func() (sum uint64) {
		for _, n := range nodes {
			sum += n.Metrics().Counter("rpc.server.requests").Value()
		}
		return sum
	}
	before := requests()
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	for _, b := range backups {
		if res, err := directInvoke(pool, b.Addr(), 1, "get", nil); err != nil || core.BytesI64(res) != 7 {
			t.Fatalf("first read at backup %s = %v, %v, want 7", b.Addr(), res, err)
		}
	}
	for _, n := range nodes {
		if b := n.Metrics().Counter("reads.primary_bounced").Value(); b != 0 {
			t.Errorf("%s bounced %d reads", n.Addr(), b)
		}
	}
	if got := requests() - before; got != uint64(len(backups)) {
		t.Errorf("%d reads took %d server requests, want one each", len(backups), got)
	}
}

// awaitLease waits, within a bounded deadline, until backup n holds a read
// lease (its lease.held gauge reads 1).
func awaitLease(t *testing.T, n *Node) {
	t.Helper()
	if !poll(5*time.Second, func() bool { return n.Metrics().Snapshot().Gauges["lease.held"] == 1 }) {
		t.Fatalf("backup %s never held a read lease", n.Addr())
	}
}

// leasedRead invokes get on obj at backup n once it holds its lease. A
// renewal loop that lags under load can let the lease lapse before the
// read arrives, and the backup then rightly bounces it: the read is sent
// again once n holds a lease again, within a bounded deadline.
func leasedRead(t *testing.T, pool *rpc.Pool, n *Node, obj core.ObjectID) ([]byte, error) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		awaitLease(t, n)
		res, err := directInvoke(pool, n.Addr(), obj, "get", nil)
		if _, bounced := ParseNotResponsible(err); !bounced || time.Now().After(deadline) {
			return res, err
		}
	}
}

// TestInferredReadOnlyServedAtBackup: a method whose reachable call graph
// cannot write is (a) classified read-only when its type is linked and
// (b) served by a leased backup, while a mutating method bounces.
func TestInferredReadOnlyServedAtBackup(t *testing.T) {
	typ := counterType(t)
	if m, ok := typ.Method("get"); !ok || !m.ReadOnly() {
		t.Fatal("a method that cannot write was not inferred read-only")
	}
	if m, ok := typ.Method("add"); !ok || m.ReadOnly() {
		t.Fatal("a mutating method was classified read-only")
	}

	nodes, c := startGroups(t, NodeOptions{leaseTTL: 150 * time.Millisecond}, 3)
	if err := c.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, 1, 7)

	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	backup := nodes[2]

	// A stale-directory client would send exactly this. A backup that
	// holds its lease (granted when the fan-out was set, and renewed every
	// TTL/4 since) serves the read rather than bounce it.
	if res, err := leasedRead(t, pool, backup, 1); err != nil || core.BytesI64(res) != 7 {
		t.Fatalf("inferred read-only invoke at backup = %v, %v, want 7", res, err)
	}
	if backup.Metrics().Counter("reads.backup_served").Value() == 0 {
		t.Fatal("a read at a backup was not counted as backup-served")
	}

	// The mutating method must still bounce to the primary, lease or not.
	if _, err := directInvoke(pool, backup.Addr(), 1, "add", [][]byte{core.I64Bytes(1)}); err == nil {
		t.Fatal("backup executed a mutating invoke")
	} else if hint, bounced := ParseNotResponsible(err); !bounced || hint != nodes[0].Addr() {
		t.Fatalf("mutating invoke at backup: %v (hint %q)", err, hint)
	}
}

// TestMutatingInvokeNeverRunsAtBackup: which replica a request reaches says
// nothing about its method. An add sent straight to a leased backup — a
// replica read of a mutating method, on the wire — is redirected before it
// executes, and InvokeRead of it runs once, at the primary, reaching every
// replica through replication alone.
func TestMutatingInvokeNeverRunsAtBackup(t *testing.T) {
	nodes, c := startGroups(t, NodeOptions{leaseTTL: 150 * time.Millisecond}, 3)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, 1, 5)
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	primary, backup := nodes[0], nodes[1]
	if v := readAt(t, pool, backup.Addr(), 1); v != 5 { // the backup holds its lease
		t.Fatalf("leased backup read = %d, want 5", v)
	}
	count := func(n *Node) int64 {
		t.Helper()
		v, err := n.Runtime().GetValueField(1, "count")
		if err != nil {
			t.Fatal(err)
		}
		return core.BytesI64(v)
	}

	_, err := directInvoke(pool, backup.Addr(), 1, "add", [][]byte{core.I64Bytes(100)})
	wantRedirect(t, err, primary.Addr())
	if b, p := count(backup), count(primary); b != p {
		t.Fatalf("backup count = %d, primary count = %d: the add ran at the backup", b, p)
	}

	before := make([]int64, len(nodes))
	for i, n := range nodes {
		before[i] = count(n)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.InvokeRead(1, "add", [][]byte{core.I64Bytes(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		if d := count(n) - before[i]; d != 6 {
			t.Fatalf("replica %d rose by %d after 6 adds, want 6", i, d)
		}
	}
}

// TestLeasedReadsDuringWrites hammers leased replica reads concurrently
// with a writer and checks the lease's consistency contract under the
// race detector: a read that starts after a write is acknowledged
// observes that write, wherever it is served.
func TestLeasedReadsDuringWrites(t *testing.T) {
	_, c := startGroups(t, NodeOptions{leaseTTL: 150 * time.Millisecond}, 3)
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
	nodes, c := startGroups(t, NodeOptions{
		leaseTTL: 150 * time.Millisecond,
		Runtime:  core.Options{CacheEntries: 64},
	}, 3)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	// The backup that is the object's read replica: the one that caches it.
	obj, addr := readAtBackup(t, c.Directory())
	if err := c.CreateObject("Counter", obj); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, obj, 5)

	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	backup := nodes[slices.IndexFunc(nodes, func(n *Node) bool { return n.Addr() == addr })]
	cached := backup.Runtime().Cache()
	if v := readAt(t, pool, backup.Addr(), obj); v != 5 { // executes and stores
		t.Fatalf("backup read = %d, want 5", v)
	}
	before := cached.Stats()
	if v := readAt(t, pool, backup.Addr(), obj); v != 5 {
		t.Fatalf("repeated backup read = %d, want 5", v)
	}
	if after := cached.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("repeated backup read did not hit its cache: %+v -> %+v", before, after)
	}

	mustAdd(t, c, obj, 3) // acknowledged: every backup has applied it
	before = cached.Stats()
	if v := readAt(t, pool, backup.Addr(), obj); v != 8 {
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
