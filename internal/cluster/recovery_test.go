package cluster

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/paxos"
	"lambdastore/internal/recovery"
	"lambdastore/internal/replication"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
)

// rejoinCluster is the coordinator-backed fixture for anti-entropy tests:
// three coordinator replicas with the failure detector armed plus a
// three-node group booted with Rejoin enabled, first node primary. Nodes
// can be killed and restarted on their original data directories; the
// fault plane is reset around every test (it is process-global).
type rejoinCluster struct {
	t         *testing.T
	pool      *rpc.Pool
	coordList []string
	cc        *coordinator.Client
	client    *Client
	nodes     []*Node
	dirs      []string
	closed    []bool
}

func startRejoinCluster(t *testing.T, mod func(i int, o *NodeOptions)) *rejoinCluster {
	t.Helper()
	fault.Reset()
	t.Cleanup(fault.Reset)
	rc := &rejoinCluster{t: t, pool: rpc.NewPool(nil)}
	t.Cleanup(func() { rc.pool.Close() })

	coordIDs := []uint64{1, 2, 3}
	var services []*coordinator.Service
	coordAddrs := make(map[uint64]string)
	for _, id := range coordIDs {
		svc := coordinator.New(id, coordIDs, nil, coordinator.Options{
			HeartbeatTimeout: 400 * time.Millisecond,
			CheckInterval:    50 * time.Millisecond,
		}, nil)
		services = append(services, svc)
		srv := rpc.NewServer()
		coordinator.RegisterServer(srv, svc)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		coordAddrs[id] = addr
	}
	for i, svc := range services {
		svc.SetTransport(paxos.NewRPCTransport(svc.Node(), rc.pool, coordAddrs))
		svc.Start()
		rc.coordList = append(rc.coordList, coordAddrs[coordIDs[i]])
	}
	t.Cleanup(func() {
		for _, svc := range services {
			svc.Close()
		}
	})

	for i := 0; i < 3; i++ {
		rc.dirs = append(rc.dirs, t.TempDir())
		rc.closed = append(rc.closed, true)
		rc.nodes = append(rc.nodes, nil)
		rc.startNode(i, mod)
	}
	t.Cleanup(func() {
		for i := range rc.nodes {
			if !rc.closed[i] {
				rc.nodes[i].Close()
			}
		}
	})

	rc.cc = coordinator.NewClient(rc.pool, rc.coordList)
	g := shard.Group{ID: 0, Primary: rc.nodes[0].Addr(),
		Backups: []string{rc.nodes[1].Addr(), rc.nodes[2].Addr()}}
	if err := rc.cc.SetGroup(g); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "initial primary", rc.nodes[0].isPrimary)

	client, err := NewClient(ClientConfig{Coordinators: rc.coordList})
	if err != nil {
		t.Fatal(err)
	}
	rc.client = client
	t.Cleanup(func() { client.Close() })
	if err := client.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	return rc
}

// startNode boots (or restarts) node i on its data directory.
func (rc *rejoinCluster) startNode(i int, mod func(i int, o *NodeOptions)) {
	rc.t.Helper()
	opts := NodeOptions{
		Addr:              "127.0.0.1:0",
		DataDir:           rc.dirs[i],
		GroupID:           0,
		Coordinators:      rc.coordList,
		HeartbeatInterval: 100 * time.Millisecond,
		Rejoin:            true,
	}
	if mod != nil {
		mod(i, &opts)
	}
	node, err := StartNode(opts)
	if err != nil {
		rc.t.Fatalf("StartNode %d: %v", i, err)
	}
	rc.nodes[i] = node
	rc.closed[i] = false
}

func (rc *rejoinCluster) kill(i int) {
	rc.t.Helper()
	rc.closed[i] = true
	if err := rc.nodes[i].Close(); err != nil {
		rc.t.Fatalf("close node %d: %v", i, err)
	}
}

// group fetches the group-0 view from the coordinator majority.
func (rc *rejoinCluster) group() shard.Group {
	rc.t.Helper()
	d, err := rc.cc.GetConfig()
	if err != nil {
		rc.t.Fatalf("GetConfig: %v", err)
	}
	for _, g := range d.Groups() {
		if g.ID == 0 {
			return g
		}
	}
	rc.t.Fatal("group 0 missing from configuration")
	return shard.Group{}
}

func (rc *rejoinCluster) epoch() uint64 {
	rc.t.Helper()
	d, err := rc.cc.GetConfig()
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
	gone := func(g shard.Group) bool {
		if g.Primary == addr {
			return false
		}
		for _, b := range g.Backups {
			if b == addr {
				return false
			}
		}
		return true
	}
	waitFor(rc.t, 10*time.Second, "eviction of "+addr, func() bool {
		if !gone(rc.group()) {
			return false
		}
		for i, n := range rc.nodes {
			if rc.closed[i] {
				continue
			}
			for _, g := range n.Directory().Groups() {
				if g.ID == 0 && !gone(g) {
					return false
				}
			}
		}
		return true
	})
}

// waitMember blocks until node i has fully rejoined: it is a backup in
// the coordinator's view and its own state machine has settled on member.
func (rc *rejoinCluster) waitMember(i int) {
	rc.t.Helper()
	waitFor(rc.t, 30*time.Second, "rejoin of node "+rc.nodes[i].Addr(), func() bool {
		if rc.nodes[i].RecoveryState() != recovery.StateMember {
			return false
		}
		for _, b := range rc.group().Backups {
			if b == rc.nodes[i].Addr() {
				return true
			}
		}
		return false
	})
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// directInvoke bypasses the client's routing and hits one node's invoke
// handler, the way a stale client or replica-read would.
func directInvoke(pool *rpc.Pool, addr string, obj core.ObjectID, method string, args [][]byte, readOnly bool) ([]byte, error) {
	body := encodeInvokeReq(&invokeReq{object: obj, method: method, args: args, readOnly: readOnly})
	return pool.Call(addr, MethodInvoke, body)
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
	// primary's first lease grant reaches it (at most TTL/4 after it
	// became a member); retry briefly before declaring failure.
	deadline := time.Now().Add(3 * time.Second)
	for {
		res, err := directInvoke(pool, addr, obj, "get", nil, true)
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
func TestRejoinAfterDowntimeWrites(t *testing.T) {
	rc := startRejoinCluster(t, nil)
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 5)

	preEpoch := rc.epoch()
	oldAddr := rc.nodes[2].Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)

	// Downtime writes: mutate an existing object and create a new one.
	mustAdd(t, rc.client, 1, 7)
	if err := rc.client.CreateObject("Counter", 2); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 2, 3)

	rc.startNode(2, nil)
	rc.waitMember(2)
	joiner := rc.nodes[2]

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
	waitFor(t, 5*time.Second, "donor session retirement", func() bool {
		return len(rc.nodes[0].DonorSessions()) == 0
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
}

// TestJoinerFencedDuringCatchUp pins the acceptance invariant: a node
// mid-catch-up is not a group member and must neither serve replica
// reads (it could return downtime-stale state) nor accept writes (its
// acks are covered by nobody).
func TestJoinerFencedDuringCatchUp(t *testing.T) {
	rc := startRejoinCluster(t, nil)
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 4)

	oldAddr := rc.nodes[2].Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)
	mustAdd(t, rc.client, 1, 6)

	// Stall the catch-up: every digest/chunk fetch fails until healed,
	// holding the restarted node in syncing indefinitely.
	fault.Add(fault.Rule{Site: fault.SiteRecoveryFetch, Action: fault.Error})
	rc.startNode(2, nil)
	joiner := rc.nodes[2]
	waitFor(t, 10*time.Second, "first (failing) sync attempt", func() bool {
		return joiner.RecoveryStatus().Attempts >= 1
	})

	if _, err := directInvoke(rc.pool, joiner.Addr(), 1, "get", nil, true); err == nil ||
		!strings.Contains(err.Error(), notResponsiblePrefix) {
		t.Fatalf("joiner served a replica read mid-catch-up: err=%v", err)
	}
	if _, err := directInvoke(rc.pool, joiner.Addr(), 1, "add",
		[][]byte{core.I64Bytes(100)}, false); err == nil ||
		!strings.Contains(err.Error(), notResponsiblePrefix) {
		t.Fatalf("joiner acknowledged a write mid-catch-up: err=%v", err)
	}
	for _, b := range rc.group().Backups {
		if b == joiner.Addr() {
			t.Fatal("joiner admitted to the group before catch-up completed")
		}
	}

	fault.Remove(fault.SiteRecoveryFetch, "")
	rc.waitMember(2)
	// Converged: the downtime write is visible, the fenced +100 is not.
	if got := readAt(t, rc.pool, joiner.Addr(), 1); got != 10 {
		t.Fatalf("rejoined value = %d, want 10", got)
	}
}

// TestRejoinRetriesThroughChunkFaults drops and errors the first fetch
// RPCs of the transfer; the manager must retry the sync until the stream
// completes, without help.
func TestRejoinRetriesThroughChunkFaults(t *testing.T) {
	rc := startRejoinCluster(t, nil)
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 2)

	oldAddr := rc.nodes[2].Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)
	mustAdd(t, rc.client, 1, 9)

	fault.Add(fault.Rule{Site: fault.SiteRecoveryFetch, Action: fault.Error, Count: 2})
	fault.Add(fault.Rule{Site: fault.SiteRecoveryFetch, Action: fault.Drop, Count: 1})
	rc.startNode(2, nil)
	rc.waitMember(2)

	if got := readAt(t, rc.pool, rc.nodes[2].Addr(), 1); got != 11 {
		t.Fatalf("rejoined value = %d, want 11", got)
	}
	if st := rc.nodes[2].RecoveryStatus(); st.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (injected faults must have failed at least one)", st.Attempts)
	}
}

// TestRejoinSurvivesDonorFailover crashes the donor mid-transfer: the
// joiner is stalled against the primary, the primary dies, the
// coordinator promotes the remaining backup, and the joiner must re-sync
// from — and be admitted by — the new primary.
func TestRejoinSurvivesDonorFailover(t *testing.T) {
	rc := startRejoinCluster(t, nil)
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 5)

	oldAddr := rc.nodes[2].Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)
	mustAdd(t, rc.client, 1, 6)

	fault.Add(fault.Rule{Site: fault.SiteRecoveryFetch, Action: fault.Error})
	rc.startNode(2, nil)
	waitFor(t, 10*time.Second, "first (failing) sync attempt", func() bool {
		return rc.nodes[2].RecoveryStatus().Attempts >= 1
	})

	// The donor dies mid-catch-up; nodes[1] is the only live backup.
	oldPrimary := rc.group().Primary
	rc.kill(0)
	waitFor(t, 10*time.Second, "promotion of the surviving backup", func() bool {
		g := rc.group()
		return g.Primary != "" && g.Primary != oldPrimary
	})

	fault.Remove(fault.SiteRecoveryFetch, "")
	rc.waitMember(2)
	if got := readAt(t, rc.pool, rc.nodes[2].Addr(), 1); got != 11 {
		t.Fatalf("value after donor failover = %d, want 11", got)
	}

	// Writes flow through the new primary and replicate synchronously to
	// the rejoined backup.
	mustAdd(t, rc.client, 1, 1)
	if got := readAt(t, rc.pool, rc.nodes[2].Addr(), 1); got != 12 {
		t.Fatalf("post-rejoin replicated value = %d, want 12", got)
	}
}

// TestRejoinRetriesThroughWALSyncFaults fails the joiner's first fsyncs
// (SyncWrites on): chunk applies hit the injected wal.sync error, the
// sync attempt fails, and the manager retries to convergence.
func TestRejoinRetriesThroughWALSyncFaults(t *testing.T) {
	durable := func(i int, o *NodeOptions) {
		o.Store = &store.Options{SyncWrites: true}
	}
	rc := startRejoinCluster(t, durable)
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 5)

	oldAddr := rc.nodes[2].Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)
	mustAdd(t, rc.client, 1, 6)

	// Boot performs its own sync'd WAL write, so hold the catch-up at the
	// fetch site first, then arm the fsync fault: the next two commits on
	// the joiner are catch-up applies, and both fail at fsync.
	fault.Add(fault.Rule{Site: fault.SiteRecoveryFetch, Action: fault.Error})
	rc.startNode(2, durable)
	waitFor(t, 10*time.Second, "first (failing) sync attempt", func() bool {
		return rc.nodes[2].RecoveryStatus().Attempts >= 1
	})
	fault.Add(fault.Rule{Site: fault.SiteWALSync, Key: rc.dirs[2], Action: fault.Error, Count: 2})
	fault.Remove(fault.SiteRecoveryFetch, "")
	rc.waitMember(2)

	if got := readAt(t, rc.pool, rc.nodes[2].Addr(), 1); got != 11 {
		t.Fatalf("rejoined value = %d, want 11", got)
	}
	if st := rc.nodes[2].RecoveryStatus(); st.Attempts < 2 {
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
	rc := startRejoinCluster(t, nil)
	const objects = 4
	for id := core.ObjectID(1); id <= objects; id++ {
		if err := rc.client.CreateObject("Counter", id); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, rc.client, id, 1)
	}

	oldAddr := rc.nodes[2].Addr()
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

	rc.startNode(2, func(i int, o *NodeOptions) {
		o.RecoveryMaxBytesPerSec = 64 << 10
	})
	rc.waitMember(2)
	close(stop)
	wg.Wait()

	// Replication is synchronous, so by the time the last add returned
	// the member joiner holds it; earlier ones arrived via catch-up
	// streaming or commit forwarding.
	for id := core.ObjectID(1); id <= objects; id++ {
		want := 3 + totals[id].Load()
		if got := readAt(t, rc.pool, rc.nodes[2].Addr(), id); got != want {
			t.Fatalf("object %d at rejoined node = %d, want %d (lost a concurrent write)", id, got, want)
		}
	}
}
