package cluster

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/admission"
	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/recovery"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/vm"
	"lambdastore/internal/wire"
)

// serveEntry sends one of the four client-facing methods straight at a
// node, the way a client with a stale view would: no routing, no retry.
type serveEntry struct {
	name string
	send func(pool *rpc.Pool, addr string, obj core.ObjectID) error
}

var serveEntries = []serveEntry{
	{"invoke", func(pool *rpc.Pool, addr string, obj core.ObjectID) error {
		_, err := directInvoke(pool, addr, obj, "add", [][]byte{core.I64Bytes(1)}, false)
		return err
	}},
	{"tx", func(pool *rpc.Pool, addr string, obj core.ObjectID) error {
		calls := []core.TxCall{{Object: obj, Method: "add", Args: [][]byte{core.I64Bytes(1)}}}
		_, err := pool.Call(addr, MethodInvokeTx, encodeTxReq(&txReq{calls: calls}))
		return err
	}},
	{"create", func(pool *rpc.Pool, addr string, obj core.ObjectID) error {
		_, err := pool.Call(addr, MethodCreate, encodeCreateReq(&createReq{object: obj, typeName: "QuietCounter"}))
		return err
	}},
	{"delete", func(pool *rpc.Pool, addr string, obj core.ObjectID) error {
		_, err := pool.Call(addr, MethodDelete, wire.AppendUvarint(nil, uint64(obj)))
		return err
	}},
}

// wantRedirect fails unless err is a routing rejection hinting at hint.
func wantRedirect(t *testing.T, err error, hint string) {
	t.Helper()
	if got, ok := ParseNotResponsible(err); !ok || got != hint {
		t.Fatalf("err = %v, want not-responsible with hint %q", err, hint)
	}
}

// holdGate takes every execution slot and queue position of the node's
// gate (queued more waiters behind the held slot) and returns the function
// that lets them all go.
func holdGate(t *testing.T, n *Node, queued int) (release func()) {
	t.Helper()
	slot, err := n.adm.Admit()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rel, err := n.adm.Admit(); err == nil {
				rel()
			}
		}()
	}
	if !poll(5*time.Second, func() bool { return n.adm.Status().QueueDepth == queued }) {
		t.Fatal("timed out waiting for gate queue to fill")
	}
	return func() { slot(); wg.Wait() }
}

// TestServeUniform pins the one server-side request path: invoke,
// transaction, create and delete are routed, admitted and classified by the
// same steps in the same order, whatever the entry point.
func TestServeUniform(t *testing.T) {
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	version := func(t *testing.T, n *Node, obj core.ObjectID) uint64 {
		t.Helper()
		v, err := n.Runtime().ObjectVersion(obj)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	t.Run("fenced", func(t *testing.T) {
		nodes, dir := startStatic(t, NodeOptions{}, 1)
		c := newGroupClient(t, dir)
		if err := c.RegisterType(quietCounterType(t)); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateObject("QuietCounter", 1); err != nil {
			t.Fatal(err)
		}
		nodes[0].fenceObject(1, "new-home:1")
		nodes[0].fenceObject(2, "new-home:1")
		for _, e := range serveEntries {
			obj := core.ObjectID(1)
			if e.name == "create" {
				obj = 2
			}
			wantRedirect(t, e.send(pool, nodes[0].Addr(), obj), "new-home:1")
		}
		if v := version(t, nodes[0], 1); v != 0 {
			t.Fatalf("a fenced request executed: version %d", v)
		}
		if ok, _ := nodes[0].Runtime().ObjectExists(2); ok {
			t.Fatal("a fenced create executed")
		}
	})

	t.Run("backup", func(t *testing.T) {
		nodes, dir := startStatic(t, NodeOptions{LeaseTTL: 150 * time.Millisecond}, 2)
		primary, backup := nodes[0], nodes[1]
		c := newGroupClient(t, dir)
		if err := c.RegisterType(quietCounterType(t)); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateObject("QuietCounter", 1); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, c, 1, 7)
		served := backup.Metrics().Counter("reads.backup_served")
		bounced := backup.Metrics().Counter("reads.primary_bounced")

		// A write bounces to the primary from every entry point.
		for _, e := range serveEntries {
			obj := core.ObjectID(1)
			if e.name == "create" {
				obj = 2
			}
			wantRedirect(t, e.send(pool, backup.Addr(), obj), primary.Addr())
		}
		if served.Value() != 0 || bounced.Value() != 0 {
			t.Fatalf("writes at a backup counted as reads: served %d, bounced %d", served.Value(), bounced.Value())
		}

		// A declared read is served under the lease (readAt retries through
		// the pre-first-grant window) ...
		if v := readAt(t, pool, backup.Addr(), 1); v != 7 {
			t.Fatalf("leased backup read = %d, want 7", v)
		}
		// ... and so is a read the client did not declare but module
		// analysis proves, with one routing decision: one served read, no
		// bounce on the way to it.
		servedBefore, bouncedBefore := served.Value(), bounced.Value()
		res, err := directInvoke(pool, backup.Addr(), 1, "get", nil, false)
		if err != nil || core.BytesI64(res) != 7 {
			t.Fatalf("inferred read-only invoke at a leased backup = %v, %v", res, err)
		}
		if s, b := served.Value()-servedBefore, bounced.Value()-bouncedBefore; s != 1 || b != 0 {
			t.Fatalf("one inferred read counted %d served + %d bounced routing decisions, want 1 + 0", s, b)
		}

		// Without a lease both bounce.
		fault.Add(fault.Rule{Site: fault.SiteLeaseRenew, Action: fault.Drop})
		t.Cleanup(fault.Reset)
		backup.leases.Revoke()
		for _, declared := range []bool{true, false} {
			_, err := directInvoke(pool, backup.Addr(), 1, "get", nil, declared)
			wantRedirect(t, err, primary.Addr())
		}
		if b := bounced.Value() - bouncedBefore; b != 2 {
			t.Fatalf("two unleased reads counted %d bounces", b)
		}
	})

	t.Run("gate full", func(t *testing.T) {
		nodes, dir := startStatic(t, NodeOptions{
			MaxConcurrentInvokes: 1, AdmissionQueue: 1, AdmissionDeadline: time.Minute,
		}, 1)
		node := nodes[0]
		c := newGroupClient(t, dir)
		if err := c.RegisterType(quietCounterType(t)); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateObject("QuietCounter", 1); err != nil {
			t.Fatal(err)
		}
		release := holdGate(t, node, 1)
		defer release()
		shed := node.Metrics().Counter("admission.shed_full")
		for i, e := range serveEntries {
			obj := core.ObjectID(1)
			if e.name == "create" {
				obj = 2
			}
			err := e.send(pool, node.Addr(), obj)
			if !admission.IsOverload(err) {
				t.Fatalf("%s against a full gate: err = %v, want a typed overload error", e.name, err)
			}
			if got := shed.Value(); got != uint64(i+1) {
				t.Fatalf("%s: admission.shed_full = %d, want %d", e.name, got, i+1)
			}
		}
		// Shed strictly before execution.
		if v := version(t, node, 1); v != 0 {
			t.Fatalf("a shed request executed: version %d", v)
		}
		if ok, _ := node.Runtime().ObjectExists(2); ok {
			t.Fatal("a shed create executed")
		}
	})

	// A request that passed routing and then waited in the gate while a
	// live move took its object away must come back as a redirect to the
	// new home — the error Client.send follows — not as no-such-object.
	// (A create has no such outcome to convert: it does not need the object
	// to exist.)
	t.Run("moved away while queued", func(t *testing.T) {
		nodes, dir := startStatic(t, NodeOptions{MaxConcurrentInvokes: 1}, 1, 1)
		oldHome, newHome := nodes[0], nodes[1]
		c := newGroupClient(t, dir)
		if err := c.RegisterType(quietCounterType(t)); err != nil {
			t.Fatal(err)
		}
		obj := core.ObjectID(2)
		for _, e := range serveEntries {
			if e.name == "create" {
				continue
			}
			obj += 2 // even ids hash to group 0
			if err := c.CreateObject("QuietCounter", obj); err != nil {
				t.Fatal(err)
			}
			release := holdGate(t, oldHome, 0)
			errc := make(chan error, 1)
			go func() { errc <- e.send(pool, oldHome.Addr(), obj) }()
			if !poll(5*time.Second, func() bool { return oldHome.adm.Status().QueueDepth == 1 }) {
				t.Fatalf("timed out waiting for %s to queue behind the held slot", e.name)
			}
			if err := c.Migrate(obj, 1); err != nil {
				t.Fatalf("migrate %d: %v", obj, err)
			}
			release()
			if err := <-errc; err == nil {
				t.Fatalf("%s executed at the old home after the move", e.name)
			} else {
				wantRedirect(t, err, newHome.Addr())
			}
		}
	})
}

// TestSemaphoreGateQueuesWithoutShedding pins the no-shed arm of the gate
// (execution slots, no AdmissionQueue — the baseline the overload
// experiment compares shedding against): requests beyond the slots wait,
// however many and however long; none is refused and no more than the slot
// count ever execute at once.
func TestSemaphoreGateQueuesWithoutShedding(t *testing.T) {
	mod, err := vm.Assemble("func tick params=0 export\n  hostcall time\n  ret\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	typ, err := core.NewObjectType("Ticker", nil, []core.MethodInfo{{Name: "tick"}}, mod)
	if err != nil {
		t.Fatal(err)
	}
	var running, peak atomic.Int32
	nodes, dir := startStatic(t, NodeOptions{
		MaxConcurrentInvokes: 1,
		// The guest's one host call is where each execution is observed.
		Runtime: core.Options{Clock: func() int64 {
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
			return 0
		}},
	}, 1)
	node := nodes[0]
	c := newGroupClient(t, dir)
	if err := c.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	// Distinct objects: nothing but the gate serializes them.
	const n = 16
	var wg sync.WaitGroup
	for id := core.ObjectID(1); id <= n; id++ {
		if err := c.CreateObject("Ticker", id); err != nil {
			t.Fatal(err)
		}
	}
	for id := core.ObjectID(1); id <= n; id++ {
		wg.Add(1)
		go func(id core.ObjectID) {
			defer wg.Done()
			if _, err := c.Invoke(id, "tick", nil); err != nil {
				t.Errorf("invoke %d behind a full gate: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	if p := peak.Load(); p != 1 {
		t.Fatalf("%d invocations executed at once through 1 slot", p)
	}
	if c.OverloadRetries() != 0 {
		t.Fatalf("the no-shed gate shed %d requests", c.OverloadRetries())
	}
	for _, name := range []string{"admission.shed_deadline", "admission.shed_full"} {
		if v := node.Metrics().Counter(name).Value(); v != 0 {
			t.Fatalf("%s = %d on the no-shed gate", name, v)
		}
	}
}

// TestCommitTailOrder drives Node.afterCommit directly and pins the order
// of what stands between a durable write-set and its ack: replicate →
// deposed re-check → relay → lease barrier. The barrier's turn is observed
// without a clock: waiting on an object's already-expired barrier clears
// its entry, so an entry still present means the tail stopped before it.
func TestCommitTailOrder(t *testing.T) {
	const obj = 1
	writeSet := func() *store.Batch {
		b := store.NewBatch()
		b.Put([]byte("commit-tail-probe"), []byte("v"))
		return b
	}
	armBarrier := func(n *Node) {
		n.objBarrierMu.Lock()
		n.objBarrier[obj] = 1 // long expired
		n.objBarrierMu.Unlock()
	}
	barrierWaited := func(n *Node) bool {
		n.objBarrierMu.Lock()
		defer n.objBarrierMu.Unlock()
		_, armed := n.objBarrier[obj]
		return !armed
	}
	// strictSession opens a strict whole-replica catch-up session from a
	// joiner nobody listens at: every relay to it fails.
	strictSession := func(t *testing.T, primary *Node) {
		t.Helper()
		pool := rpc.NewPool(nil)
		t.Cleanup(pool.Close)
		req := wire.AppendString(nil, "127.0.0.1:1")
		req = wire.AppendUvarint(req, primary.Directory().Epoch())
		req = wire.AppendUvarint(req, 0) // whole-replica scope
		for _, m := range []string{recovery.MethodBegin, recovery.MethodPromote} {
			if _, err := pool.Call(primary.Addr(), m, req); err != nil {
				t.Fatalf("%s: %v", m, err)
			}
		}
	}

	t.Run("ship failure withholds the ack", func(t *testing.T) {
		nodes, _ := startStatic(t, NodeOptions{}, 2)
		armBarrier(nodes[0])
		fault.Add(fault.Rule{Site: fault.SiteReplShip, Key: nodes[1].Addr(), Action: fault.Error})
		t.Cleanup(fault.Reset)
		if err := nodes[0].afterCommit(telemetry.SpanContext{}, obj, 0, writeSet()); err == nil {
			t.Fatal("commit acknowledged though its backup never got it")
		}
		if barrierWaited(nodes[0]) {
			t.Fatal("lease barrier waited after a failed ship")
		}
	})

	t.Run("deposed after ship answers not-responsible before relaying", func(t *testing.T) {
		nodes, _ := startStatic(t, NodeOptions{}, 2)
		old, promoted := nodes[0], nodes[1]
		strictSession(t, old)
		armBarrier(old)
		old.SetDirectory(shard.NewDirectory([]shard.Group{{ID: 0, Primary: promoted.Addr()}}))
		wantRedirect(t, old.afterCommit(telemetry.SpanContext{}, obj, 0, writeSet()), promoted.Addr())
		if barrierWaited(old) {
			t.Fatal("lease barrier waited on a deposed primary's commit")
		}
	})

	t.Run("strict relay failure withholds the ack", func(t *testing.T) {
		nodes, _ := startStatic(t, NodeOptions{}, 2)
		strictSession(t, nodes[0])
		armBarrier(nodes[0])
		err := nodes[0].afterCommit(telemetry.SpanContext{}, obj, 0, writeSet())
		if err == nil || !strings.Contains(err.Error(), "strict forward") {
			t.Fatalf("err = %v, want the strict relay's failure", err)
		}
		if barrierWaited(nodes[0]) {
			t.Fatal("lease barrier waited after a failed strict relay")
		}
	})

	t.Run("lease barrier is waited last", func(t *testing.T) {
		nodes, _ := startStatic(t, NodeOptions{}, 2)
		armBarrier(nodes[0])
		if err := nodes[0].afterCommit(telemetry.SpanContext{}, obj, 0, writeSet()); err != nil {
			t.Fatal(err)
		}
		if !barrierWaited(nodes[0]) {
			t.Fatal("an acknowledged commit never consulted the lease barrier")
		}
	})
}
