package cluster

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/recovery"
	"lambdastore/internal/replication"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
)

// rejoinCluster is the coordinator-backed fixture for anti-entropy tests:
// three coordinator replicas with the failure detector armed plus a
// three-node group, first node primary. Nodes
// can be killed and restarted on their original data directories; the
// fault plane is reset around every test (it is process-global).
type rejoinCluster struct {
	*Local
	t      *testing.T
	pool   *rpc.Pool
	client *Client
}

// startRejoinCluster boots the fixture with every node running node.
func startRejoinCluster(t *testing.T, node NodeOptions) *rejoinCluster {
	t.Helper()
	fault.Reset()
	t.Cleanup(fault.Reset)
	l := startLocal(t, coordinated([]int{3}, node))
	if err := l.Client.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	return &rejoinCluster{Local: l, t: t, pool: l.Client.pool, client: l.Client}
}

// node returns node i's current incarnation.
func (rc *rejoinCluster) node(i int) *Node { return rc.Slots[i].Node }

// restart boots node i again on its data directory and address.
func (rc *rejoinCluster) restart(i int) {
	rc.t.Helper()
	if err := rc.Restart(i); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rejoinCluster) kill(i int) {
	rc.t.Helper()
	if err := rc.Kill(i); err != nil {
		rc.t.Fatalf("close node %d: %v", i, err)
	}
}

// group fetches the group-0 view from the coordinator majority.
func (rc *rejoinCluster) group() shard.Group {
	rc.t.Helper()
	g, err := rc.Group(0)
	if err != nil {
		rc.t.Fatal(err)
	}
	return g
}

func (rc *rejoinCluster) epoch() uint64 {
	rc.t.Helper()
	d, err := rc.View()
	if err != nil {
		rc.t.Fatalf("GetConfig: %v", err)
	}
	return d.Epoch()
}

// waitEvicted blocks until the coordinator has removed addr from group 0
// AND every live node's own view reflects it — otherwise the next write
// still ships to the dead address and fails its ack.
func (rc *rejoinCluster) waitEvicted(addr string) {
	rc.t.Helper()
	gone := func(g shard.Group, ok bool) bool { return ok && !slices.Contains(g.Replicas(), addr) }
	await(rc.t, rc.Local, 10*time.Second, "eviction of "+addr, func() bool {
		g, err := rc.Group(0)
		if !gone(g, err == nil) {
			return false
		}
		for _, n := range rc.Nodes() {
			if !gone(n.Directory().Group(0)) {
				return false
			}
		}
		return true
	})
}

// waitMember blocks until node i has fully rejoined: it is a backup in
// the coordinator's view and its own state machine has settled on member.
func (rc *rejoinCluster) waitMember(i int) {
	rc.t.Helper()
	await(rc.t, rc.Local, 30*time.Second, "rejoin of node "+rc.Slots[i].Addr, func() bool {
		return rc.node(i).RecoveryStatus().State == recovery.StateMember.String() &&
			slices.Contains(rc.group().Backups, rc.Slots[i].Addr)
	})
}

// directInvoke bypasses the client's routing and hits one node's invoke
// handler, the way a stale client or replica-read would.
func directInvoke(pool *rpc.Pool, addr string, obj core.ObjectID, method string, args [][]byte) ([]byte, error) {
	body := encodeInvokeReq(&invokeReq{object: obj, method: method, args: args})
	return pool.Call(addr, MethodInvoke, *body)
}

func mustAdd(t *testing.T, c *Client, obj core.ObjectID, delta int64) {
	t.Helper()
	if _, err := c.Invoke(obj, "add", [][]byte{core.I64Bytes(delta)}); err != nil {
		t.Fatalf("add(%d, %d): %v", obj, delta, err)
	}
}

func readAt(t *testing.T, pool *rpc.Pool, addr string, obj core.ObjectID) int64 {
	t.Helper()
	// A backup bounces replica reads with not-responsible until the
	// primary's first lease grant reaches it: sent when the primary
	// installs a fan-out naming it, and again after 1, 2, 4 … ms while the
	// backup has not installed that epoch yet — or, for a joiner, once its
	// catch-up re-admits it. Retry briefly before declaring failure.
	deadline := time.Now().Add(3 * time.Second)
	for {
		res, err := directInvoke(pool, addr, obj, "get", nil)
		if err == nil {
			return core.BytesI64(res)
		}
		if _, ok := ParseNotResponsible(err); !ok || time.Now().After(deadline) {
			t.Fatalf("replica read of %d at %s: %v", obj, addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRejoinAfterDowntimeWrites is the end-to-end anti-entropy path: a
// backup dies, the coordinator evicts it, writes (including a whole new
// object) land during its downtime, and the restarted node must catch up
// via range digests, be re-admitted, and serve replica reads of state it
// only holds through streaming. A frame stamped with the pre-rejoin epoch
// must still be fenced off by the rejoined node.
//
// It runs twice, over a base of 0 and of 200 untouched objects the joiner
// already holds: the catch-up must cost the same at both sizes, because a
// rejoin streams what diverged, not what the store holds.
func TestRejoinAfterDowntimeWrites(t *testing.T) {
	small := rejoinAfterDowntime(t, 0)
	large := rejoinAfterDowntime(t, 200)
	if small.RangesDiverged != large.RangesDiverged {
		t.Errorf("ranges diverged = %d over 0 base objects but %d over 200: rejoin cost tracks store size",
			small.RangesDiverged, large.RangesDiverged)
	}
	if float64(large.BytesStreamed) > 1.1*float64(small.BytesStreamed) {
		t.Errorf("bytes streamed = %d over 200 base objects, > 1.1x the %d over 0: rejoin cost tracks store size",
			large.BytesStreamed, small.BytesStreamed)
	}
}

// rejoinAfterDowntime runs TestRejoinAfterDowntimeWrites's scenario on a
// fresh cluster whose joiner already holds base untouched objects, and
// returns the joiner's recovery status.
func rejoinAfterDowntime(t *testing.T, base int) recovery.Status {
	rc := startRejoinCluster(t, NodeOptions{})
	defer rc.Close() // before the next run boots its own
	for i := 0; i < base; i++ {
		if err := rc.client.CreateObject("Counter", core.ObjectID(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 5)

	preEpoch := rc.epoch()
	oldAddr := rc.node(2).Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)

	// Downtime writes: mutate an existing object and create a new one.
	mustAdd(t, rc.client, 1, 7)
	if err := rc.client.CreateObject("Counter", 2); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 2, 3)

	rc.restart(2)
	rc.waitMember(2)
	joiner := rc.node(2)

	for obj, want := range map[core.ObjectID]int64{1: 12, 2: 3} {
		if got := readAt(t, rc.pool, joiner.Addr(), obj); got != want {
			t.Fatalf("object %d at rejoined node = %d, want %d", obj, got, want)
		}
	}

	st := joiner.RecoveryStatus()
	if st.Rejoins != 1 {
		t.Errorf("rejoins = %d, want 1", st.Rejoins)
	}
	if st.RangesDiverged == 0 || st.BytesStreamed == 0 || st.ChunksApplied == 0 {
		t.Errorf("catch-up telemetry empty: diverged=%d bytes=%d chunks=%d",
			st.RangesDiverged, st.BytesStreamed, st.ChunksApplied)
	}
	if st.LastRejoinSeconds <= 0 {
		t.Errorf("last_rejoin_seconds = %v, want > 0", st.LastRejoinSeconds)
	}
	// The donor retires the catch-up session at admission.
	await(t, rc.Local, 5*time.Second, "donor session retirement", func() bool {
		return len(rc.node(0).transfer.Sessions()) == 0
	})

	// A deposed primary from before the rejoin ships frames at preEpoch;
	// the rejoined backup's fence must reject them without applying.
	sh := replication.NewShipper(rc.pool, nil)
	defer sh.Close()
	sh.SetEpoch(preEpoch)
	sh.SetBackups([]string{joiner.Addr()})
	zombie := store.NewBatch()
	zombie.Put([]byte("zombie-key"), []byte("v"))
	err := sh.Ship(99, zombie)
	if err == nil || !strings.Contains(err.Error(), "stale configuration epoch") {
		t.Fatalf("pre-rejoin epoch frame not fenced: %v", err)
	}
	if got := joiner.Metrics().Counter("repl.stale_epoch").Value(); got == 0 {
		t.Error("repl.stale_epoch = 0 after fenced frame")
	}
	if _, err := joiner.DB().Get([]byte("zombie-key")); err != store.ErrNotFound {
		t.Fatalf("stale frame landed on rejoined node: %v", err)
	}
	t.Logf("base %d objects: %d ranges diverged, %d bytes streamed", base, st.RangesDiverged, st.BytesStreamed)
	return st
}

// TestJoinerFencedDuringCatchUp pins the acceptance invariant: a node
// mid-catch-up is not a group member and must neither serve replica
// reads (it could return downtime-stale state) nor accept writes (its
// acks are covered by nobody).
func TestJoinerFencedDuringCatchUp(t *testing.T) {
	rc := startRejoinCluster(t, NodeOptions{})
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 4)

	oldAddr := rc.node(2).Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)
	mustAdd(t, rc.client, 1, 6)

	// Stall the catch-up: every chunk fetch fails until healed, holding the
	// restarted node in syncing indefinitely.
	fault.Add(fault.Rule{Site: recovery.MethodFetch, Action: fault.Error})
	rc.restart(2)
	joiner := rc.node(2)
	await(t, rc.Local, 10*time.Second, "first (failing) sync attempt", func() bool {
		return joiner.RecoveryStatus().Attempts >= 1
	})

	if _, err := directInvoke(rc.pool, joiner.Addr(), 1, "get", nil); err == nil ||
		!strings.Contains(err.Error(), notResponsiblePrefix) {
		t.Fatalf("joiner served a replica read mid-catch-up: err=%v", err)
	}
	if _, err := directInvoke(rc.pool, joiner.Addr(), 1, "add",
		[][]byte{core.I64Bytes(100)}); err == nil ||
		!strings.Contains(err.Error(), notResponsiblePrefix) {
		t.Fatalf("joiner acknowledged a write mid-catch-up: err=%v", err)
	}
	for _, b := range rc.group().Backups {
		if b == joiner.Addr() {
			t.Fatal("joiner admitted to the group before catch-up completed")
		}
	}

	fault.Remove(recovery.MethodFetch, "")
	rc.waitMember(2)
	// Converged: the downtime write is visible, the fenced +100 is not.
	if got := readAt(t, rc.pool, joiner.Addr(), 1); got != 10 {
		t.Fatalf("rejoined value = %d, want 10", got)
	}
}

// TestRejoinRetriesThroughChunkFaults fails the first two digest pulls of
// the transfer and loses its first chunk fetch (the call times out); the
// manager must retry the sync until the stream completes, without help.
func TestRejoinRetriesThroughChunkFaults(t *testing.T) {
	rc := startRejoinCluster(t, NodeOptions{ClientOptions: &rpc.ClientOptions{Timeout: time.Second}})
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 2)

	oldAddr := rc.node(2).Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)
	mustAdd(t, rc.client, 1, 9)

	fault.Add(fault.Rule{Site: recovery.MethodDigest, Action: fault.Error, Count: 2})
	fault.Add(fault.Rule{Site: recovery.MethodFetch, Action: fault.Drop, Count: 1})
	rc.restart(2)
	rc.waitMember(2)

	if got := readAt(t, rc.pool, rc.node(2).Addr(), 1); got != 11 {
		t.Fatalf("rejoined value = %d, want 11", got)
	}
	if st := rc.node(2).RecoveryStatus(); st.Attempts < 4 {
		t.Errorf("attempts = %d, want >= 4 (each injected fault fails one)", st.Attempts)
	}
	if n := fault.Counters()[recovery.MethodFetch+".drop"]; n != 1 {
		t.Errorf("%d chunk fetches lost, want 1", n)
	}
}

// TestRejoinSurvivesDonorFailover crashes the donor mid-transfer: the
// joiner is stalled against the primary, the primary dies, the
// coordinator promotes the remaining backup, and the joiner must re-sync
// from — and be admitted by — the new primary.
func TestRejoinSurvivesDonorFailover(t *testing.T) {
	rc := startRejoinCluster(t, NodeOptions{})
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 5)

	oldAddr := rc.node(2).Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)
	mustAdd(t, rc.client, 1, 6)

	fault.Add(fault.Rule{Site: recovery.MethodFetch, Action: fault.Error})
	rc.restart(2)
	await(t, rc.Local, 10*time.Second, "first (failing) sync attempt", func() bool {
		return rc.node(2).RecoveryStatus().Attempts >= 1
	})

	// The donor dies mid-catch-up; nodes[1] is the only live backup.
	oldPrimary := rc.group().Primary
	rc.kill(0)
	await(t, rc.Local, 10*time.Second, "promotion of the surviving backup", func() bool {
		g := rc.group()
		return g.Primary != "" && g.Primary != oldPrimary
	})

	fault.Remove(recovery.MethodFetch, "")
	rc.waitMember(2)
	if got := readAt(t, rc.pool, rc.node(2).Addr(), 1); got != 11 {
		t.Fatalf("value after donor failover = %d, want 11", got)
	}

	// Writes flow through the new primary and replicate synchronously to
	// the rejoined backup.
	mustAdd(t, rc.client, 1, 1)
	if got := readAt(t, rc.pool, rc.node(2).Addr(), 1); got != 12 {
		t.Fatalf("post-rejoin replicated value = %d, want 12", got)
	}
}

// TestRejoinRetriesThroughWALSyncFaults fails the joiner's first fsyncs
// (SyncWrites on): chunk applies hit the injected wal.sync error, the
// sync attempt fails, and the manager retries to convergence.
func TestRejoinRetriesThroughWALSyncFaults(t *testing.T) {
	rc := startRejoinCluster(t, NodeOptions{Store: &store.Options{SyncWrites: true}})
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 5)

	oldAddr := rc.node(2).Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)
	mustAdd(t, rc.client, 1, 6)

	// Boot performs its own sync'd WAL write, so hold the catch-up at the
	// fetch site first, then arm the fsync fault: the next two commits on
	// the joiner are catch-up applies, and both fail at fsync.
	fault.Add(fault.Rule{Site: recovery.MethodFetch, Action: fault.Error})
	rc.restart(2)
	await(t, rc.Local, 10*time.Second, "first (failing) sync attempt", func() bool {
		return rc.node(2).RecoveryStatus().Attempts >= 1
	})
	fault.Add(fault.Rule{Site: fault.SiteWALSync, To: rc.Slots[2].DataDir, Action: fault.Error, Count: 2})
	fault.Remove(recovery.MethodFetch, "")
	rc.waitMember(2)

	if got := readAt(t, rc.pool, rc.node(2).Addr(), 1); got != 11 {
		t.Fatalf("rejoined value = %d, want 11", got)
	}
	if st := rc.node(2).RecoveryStatus(); st.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (fsync faults must have failed at least one)", st.Attempts)
	}
}

// TestRejoinConcurrentWithWrites overlaps catch-up with live foreground
// traffic (run under -race by `make race`): writers keep incrementing
// counters while the node streams state, is admitted under the commit
// fence, and becomes a backup. Every acknowledged increment — before the
// crash, during downtime, and concurrent with the transfer — must be
// present at the rejoined replica.
func TestRejoinConcurrentWithWrites(t *testing.T) {
	// The throttle binds whoever rejoins: the restarted node below.
	rc := startRejoinCluster(t, NodeOptions{RecoveryMaxBytesPerSec: 64 << 10})
	const objects = 4
	for id := core.ObjectID(1); id <= objects; id++ {
		if err := rc.client.CreateObject("Counter", id); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, rc.client, id, 1)
	}

	oldAddr := rc.node(2).Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)
	for id := core.ObjectID(1); id <= objects; id++ {
		mustAdd(t, rc.client, id, 2)
	}

	var totals [objects + 1]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				obj := core.ObjectID(1 + (i+w)%objects)
				if _, err := rc.client.Invoke(obj, "add", [][]byte{core.I64Bytes(1)}); err != nil {
					t.Errorf("concurrent add(%d): %v", obj, err)
					return
				}
				totals[obj].Add(1)
			}
		}(w)
	}

	rc.restart(2)
	rc.waitMember(2)
	close(stop)
	wg.Wait()

	// Replication is synchronous, so by the time the last add returned
	// the member joiner holds it; earlier ones arrived via catch-up
	// streaming or commit forwarding.
	for id := core.ObjectID(1); id <= objects; id++ {
		want := 3 + totals[id].Load()
		if got := readAt(t, rc.pool, rc.node(2).Addr(), id); got != want {
			t.Fatalf("object %d at rejoined node = %d, want %d (lost a concurrent write)", id, got, want)
		}
	}
}
