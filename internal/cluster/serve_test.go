package cluster

import (
	"strings"
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
		_, err := directInvoke(pool, addr, obj, "add", [][]byte{core.I64Bytes(1)})
		return err
	}},
	{"tx", func(pool *rpc.Pool, addr string, obj core.ObjectID) error {
		calls := []core.TxCall{{Object: obj, Method: "add", Args: [][]byte{core.I64Bytes(1)}}}
		_, err := pool.Call(addr, MethodInvokeTx, encodeTxReq(&txReq{calls: calls}))
		return err
	}},
	{"create", func(pool *rpc.Pool, addr string, obj core.ObjectID) error {
		_, err := pool.Call(addr, MethodCreate, encodeCreateReq(&createReq{object: obj, typeName: "Counter"}))
		return err
	}},
	{"delete", func(pool *rpc.Pool, addr string, obj core.ObjectID) error {
		_, err := pool.Call(addr, MethodDelete, encodeDeleteReq(obj))
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

// TestServeUniform pins the one server-side request path: invoke,
// transaction, create and delete are routed, executed and classified by
// the same steps in the same order, whatever the entry point.
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

	// A move's mark answers every entry point alike. Once the view maps the
	// object elsewhere (the cutover committed) each is redirected there and
	// nothing executes. While the view still homes it here (the move never
	// committed) the primary takes the mark back and each runs; a create
	// finds the object, not a mark.
	t.Run("fenced", func(t *testing.T) {
		nodes, c := startGroups(t, NodeOptions{}, 1)
		if err := c.RegisterType(counterType(t)); err != nil {
			t.Fatal(err)
		}
		const obj = 2
		if err := c.CreateObject("Counter", obj); err != nil {
			t.Fatal(err)
		}
		// Objects hash to id % 2: object 2 stays in group 0. The test edits
		// the node's view in place.
		dir := nodes[0].Directory()
		dir.SetGroup(shard.Group{ID: 1, Primary: "new-home:1"})
		freeze := func() {
			t.Helper()
			if _, err := nodes[0].freeze(obj, 1); err != nil {
				t.Fatal(err)
			}
		}
		freeze()
		dir.SetOverride(obj, 1)
		for _, e := range serveEntries {
			wantRedirect(t, e.send(pool, nodes[0].Addr(), obj), "new-home:1")
		}
		if v := version(t, nodes[0], obj); v != 0 {
			t.Fatalf("a request executed on a moved object: version %d", v)
		}
		if ok, err := nodes[0].Runtime().ObjectExists(obj); ok || err != nil {
			t.Fatalf("a moved object exists (%v, %v)", ok, err)
		}

		dir.ClearOverride(obj)
		for _, e := range serveEntries {
			freeze()
			err := e.send(pool, nodes[0].Addr(), obj)
			if e.name == "create" {
				if err == nil || !strings.Contains(err.Error(), core.ErrExists.Error()) {
					t.Fatalf("create of a marked object at its home: %v, want it to exist", err)
				}
			} else if err != nil {
				t.Fatalf("%s of a marked object at its home: %v", e.name, err)
			}
		}
		if ok, err := nodes[0].Runtime().ObjectExists(obj); ok || err != nil {
			t.Fatalf("the object outlived its delete (%v, %v)", ok, err)
		}
	})

	t.Run("backup", func(t *testing.T) {
		nodes, c := startGroups(t, NodeOptions{leaseTTL: 150 * time.Millisecond}, 2)
		primary, backup := nodes[0], nodes[1]
		if err := c.RegisterType(counterType(t)); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateObject("Counter", 1); err != nil {
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

		// A read the method's link-time facts prove is served under the
		// lease (granted when the primary set its fan-out; readAt retries
		// only in case that grant is still in flight), with one routing
		// decision: one served read, no bounce on the way to it.
		if v := readAt(t, pool, backup.Addr(), 1); v != 7 {
			t.Fatalf("leased backup read = %d, want 7", v)
		}
		servedBefore, bouncedBefore := served.Value(), bounced.Value()
		res, err := directInvoke(pool, backup.Addr(), 1, "get", nil)
		if err != nil || core.BytesI64(res) != 7 {
			t.Fatalf("read-only invoke at a leased backup = %v, %v", res, err)
		}
		if s, b := served.Value()-servedBefore, bounced.Value()-bouncedBefore; s != 1 || b != 0 {
			t.Fatalf("one read counted %d served + %d bounced routing decisions, want 1 + 0", s, b)
		}

		// Without a lease it bounces.
		fault.Add(fault.Rule{Site: replication.MethodLease, Action: fault.Drop})
		t.Cleanup(fault.Reset)
		backup.leases.Revoke()
		_, err = directInvoke(pool, backup.Addr(), 1, "get", nil)
		wantRedirect(t, err, primary.Addr())
		if b := bounced.Value() - bouncedBefore; b != 1 {
			t.Fatalf("one unleased read counted %d bounces", b)
		}
	})

	// A request that passed routing and then, before it executed, lost its
	// object to a live move must come back as a redirect to the new home —
	// the error Client.send follows — not as no-such-object, and a create
	// must not find the header gone and re-create the object at its old
	// home. routedHook holds the one request between route and execute.
	t.Run("moved away while queued", func(t *testing.T) {
		var held atomic.Bool
		routed, resume := make(chan struct{}), make(chan struct{})
		routedHook = func() {
			if held.CompareAndSwap(true, false) {
				routed <- struct{}{}
				<-resume
			}
		}
		t.Cleanup(func() { routedHook = nil })
		l := sharedMovers(t)
		c := l.Client
		oldHome, newHome := primaryOf(t, l, 0), primaryOf(t, l, 1)
		for _, e := range serveEntries {
			obj := newObject(t, l)
			held.Store(true)
			errc := make(chan error, 1)
			go func() { errc <- e.send(pool, oldHome.Addr(), obj) }()
			<-routed
			if err := c.Migrate(obj, 1); err != nil {
				t.Fatalf("migrate %d: %v", obj, err)
			}
			resume <- struct{}{}
			if err := <-errc; err == nil {
				t.Fatalf("%s executed at the old home after the move", e.name)
			} else {
				wantRedirect(t, err, newHome.Addr())
			}
			if ok, _ := oldHome.Runtime().ObjectExists(obj); ok {
				t.Fatalf("%s left object %d at its old home after the move", e.name, obj)
			}
		}
	})
}

// deadJoinerSession opens a whole-replica catch-up session at primary from
// a joiner nobody listens at: the first relay to it fails and ends it.
func deadJoinerSession(t *testing.T, primary *Node) {
	t.Helper()
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	req := wire.AppendString(nil, "127.0.0.1:1")
	req = wire.AppendUvarint(req, primary.Directory().Epoch())
	req = wire.AppendUvarint(req, 0) // whole-replica scope
	if _, err := pool.Call(primary.Addr(), recovery.MethodBegin, req); err != nil {
		t.Fatalf("begin: %v", err)
	}
}

// TestCommitTailOrder commits through a node's runtime — past routing, which
// would turn a deposed node away first — and pins the order of what stands
// between a write and its ack: fsync, then (in the write group's hook) ship
// → deposed re-check → relay, then the lease barrier. The barrier's turn is
// observed through the role machine's clock: the tail reads it to ask
// ackDelay, and a read outside install (which holds the machine's lock) is
// that question.
func TestCommitTailOrder(t *testing.T) {
	const obj = 1
	asked := map[*Node]*atomic.Bool{}
	armBarrier := func(n *Node) {
		a := new(atomic.Bool)
		asked[n] = a
		n.role.now = func() time.Time {
			if n.role.mu.TryLock() {
				n.role.mu.Unlock()
				a.Store(true)
			}
			return time.Now()
		}
	}
	barrierWaited := func(n *Node) bool { return asked[n].Load() }
	// group boots a group of the given size holding the object, and arms
	// the primary's barrier probe.
	group := func(t *testing.T, size int, opts NodeOptions) []*Node {
		t.Helper()
		nodes, c := startGroups(t, opts, size)
		if err := c.RegisterType(counterType(t)); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateObject("Counter", obj); err != nil {
			t.Fatal(err)
		}
		armBarrier(nodes[0])
		return nodes
	}
	commit := func(n *Node) error {
		_, err := n.Runtime().InvokeCtx(obj, "add", [][]byte{core.I64Bytes(1)}, core.CallCtx{})
		return err
	}

	t.Run("ship failure withholds the ack", func(t *testing.T) {
		nodes := group(t, 2, NodeOptions{})
		fault.Add(fault.Rule{Site: replication.MethodApplyBatch, To: nodes[1].Addr(), Action: fault.Error})
		t.Cleanup(fault.Reset)
		commits := nodes[0].Metrics().Counter("core.commits")
		before := commits.Value()
		if err := commit(nodes[0]); err == nil {
			t.Fatal("commit acknowledged though its backup never got it")
		}
		if got := commits.Value(); got != before+1 {
			t.Fatalf("core.commits moved %d → %d: an unacknowledged local commit still counts", before, got)
		}
		if v, err := nodes[0].Runtime().ObjectVersion(obj); err != nil || v != 1 {
			t.Fatalf("version %d, %v at the primary: want the commit applied there", v, err)
		}
		if barrierWaited(nodes[0]) {
			t.Fatal("lease barrier waited after a failed ship")
		}
	})

	t.Run("deposed after ship answers not-responsible before relaying", func(t *testing.T) {
		nodes := group(t, 2, NodeOptions{})
		old, promoted := nodes[0], nodes[1]
		deadJoinerSession(t, old)
		old.SetDirectory(shard.NewDirectory([]shard.Group{{ID: 0, Primary: promoted.Addr()}}))
		wantRedirect(t, commit(old), promoted.Addr())
		if barrierWaited(old) {
			t.Fatal("lease barrier waited on a deposed primary's commit")
		}
		// A relay to the dead joiner would have failed and ended its session.
		if n := len(old.transfer.Sessions()); n != 1 {
			t.Fatalf("%d sessions: the deposed primary relayed its commit", n)
		}
	})

	t.Run("a failed relay acks the write and ends the session", func(t *testing.T) {
		nodes := group(t, 2, NodeOptions{})
		deadJoinerSession(t, nodes[0])
		if err := commit(nodes[0]); err != nil {
			t.Fatalf("commit whose relay failed: %v", err)
		}
		if n := len(nodes[0].transfer.Sessions()); n != 0 {
			t.Fatalf("%d sessions after the failed relay", n)
		}
		if got := nodes[0].Metrics().Counter("recovery.forward_gaps").Value(); got != 1 {
			t.Fatalf("recovery.forward_gaps = %d, want 1", got)
		}
		if !barrierWaited(nodes[0]) {
			t.Fatal("an acknowledged commit never consulted the lease barrier")
		}
	})

	t.Run("lease barrier is waited last", func(t *testing.T) {
		nodes := group(t, 2, NodeOptions{})
		if err := commit(nodes[0]); err != nil {
			t.Fatal(err)
		}
		if !barrierWaited(nodes[0]) {
			t.Fatal("an acknowledged commit never consulted the lease barrier")
		}
	})

	t.Run("a failed fsync ships nothing", func(t *testing.T) {
		nodes := group(t, 3, NodeOptions{Store: &store.Options{SyncWrites: true}})
		applied := func() (n uint64) {
			for _, b := range nodes[1:] {
				n += b.Metrics().Counter("repl.applied").Value()
			}
			return n
		}
		before := applied()
		fault.Add(fault.Rule{Site: fault.SiteWALSync, To: nodes[0].opts.DataDir, Action: fault.Error, Count: 1})
		t.Cleanup(fault.Reset)
		if err := commit(nodes[0]); err == nil || !strings.Contains(err.Error(), "wal sync") {
			t.Fatalf("err = %v, want the failed fsync", err)
		}
		if got := applied(); got != before {
			t.Fatalf("backups' repl.applied moved %d → %d: a group shipped before its fsync", before, got)
		}
		if barrierWaited(nodes[0]) {
			t.Fatal("lease barrier waited after a failed fsync")
		}
	})
}

// TestTransferredApplyJoinsTheGroupPath: what state transfer applies at a
// primary — here a move target's chunks — replicates like a commit, so it
// is relayed to a catch-up session at the target: a joiner admitted right
// after a move cannot lack the moved object. The joiner here is dead, so
// the relay fails and ends its session, and the move goes through.
func TestTransferredApplyJoinsTheGroupPath(t *testing.T) {
	l := sharedMovers(t)
	c := l.Client
	obj := newObject(t, l)
	target := primaryOf(t, l, 1)
	gaps := target.Metrics().Counter("recovery.forward_gaps")
	before := gaps.Value()
	deadJoinerSession(t, target)
	if err := c.Migrate(obj, 1); err != nil {
		t.Fatalf("move into a primary whose joiner is unreachable: %v", err)
	}
	if gaps.Value() == before {
		t.Fatal("the move's chunk was never relayed to the target's joiner")
	}
	if n := len(target.transfer.Sessions()); n != 0 {
		t.Fatalf("%d sessions at the target after its relay failed", n)
	}
	if _, err := c.Invoke(obj, "add", [][]byte{core.I64Bytes(1)}); err != nil {
		t.Fatalf("object does not serve at its new home after the move: %v", err)
	}
}
