package cluster

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/vm"
)

// counterType builds a minimal Counter type for cluster tests.
func counterType(t *testing.T) *core.ObjectType {
	t.Helper()
	clean := `
func read params=0
  str "count"
  hostcall val_get
  dup
  push -1
  eq
  jnz absent
  unpack.ptr
  load64
  ret
absent:
  pop
  push 0
  ret
end

;; emit(v): store v into "count" and set it as the result.
func emit params=1 locals=1
  push 8
  hostcall alloc
  local.set 1
  local.get 1
  local.get 0
  store64
  str "count"
  local.get 1
  push 8
  hostcall val_set
  local.get 1
  push 8
  hostcall set_result
  ret
end

func add params=0 export
  call read
  push 0
  hostcall arg
  unpack.ptr
  load64
  add
  call emit
  ret
end

func get params=0 locals=1 export
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  call read
  store64
  local.get 0
  push 8
  hostcall set_result
  ret
end

;; ping_add(target, delta): cross-object invoke of add on target.
func ping_add params=0 locals=2 export
  push 1
  hostcall arg
  unpack.ptr
  load64
  local.set 1
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  local.get 1
  store64
  local.get 0
  push 8
  hostcall call_arg
  push 0
  hostcall arg
  unpack.ptr
  load64
  str "add"
  hostcall invoke
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall set_result
  ret
end
`
	mod, err := vm.Assemble(clean)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	typ, err := core.NewObjectType("Counter",
		[]core.FieldDef{{Name: "count", Kind: core.FieldValue}},
		[]core.MethodInfo{
			{Name: "add"},
			{Name: "get", ReadOnly: true, Deterministic: true},
			{Name: "ping_add"},
		}, mod)
	if err != nil {
		t.Fatalf("type: %v", err)
	}
	return typ
}

func newGroupClient(t *testing.T, dir *shard.Directory) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestSingleGroupInvokeAndReplicate(t *testing.T) {
	nodes, dir := startStatic(t, NodeOptions{}, 3)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	res, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(5)})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != 5 {
		t.Fatalf("add = %d", core.BytesI64(res))
	}

	// The write-set must be on every backup (synchronous shipping).
	for i, node := range nodes {
		v, err := node.Runtime().GetValueField(1, "count")
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if core.BytesI64(v) != 5 {
			t.Fatalf("node %d count = %d", i, core.BytesI64(v))
		}
	}
}

func TestReplicaReads(t *testing.T) {
	nodes, dir := startStatic(t, NodeOptions{}, 3)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(7)}); err != nil {
		t.Fatal(err)
	}
	// Spread reads over replicas; all must observe the committed value.
	for i := 0; i < 9; i++ {
		res, err := c.InvokeRead(1, "get", nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if core.BytesI64(res) != 7 {
			t.Fatalf("read %d = %d", i, core.BytesI64(res))
		}
	}
	// Backups served some of those reads.
	var backupInvocations uint64
	for _, node := range nodes[1:] {
		backupInvocations += node.Metrics().Counter("core.invocations").Value()
	}
	if backupInvocations == 0 {
		t.Fatal("no read executed at a backup")
	}
}

func TestBackupRejectsMutation(t *testing.T) {
	nodes, dir := startStatic(t, NodeOptions{}, 2)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	// Talk to the backup directly with a mutating request.
	pool := rpc.NewPool(nil)
	defer pool.Close()
	body := encodeInvokeReq(&invokeReq{object: 1, method: "add", args: [][]byte{core.I64Bytes(1)}})
	_, err := pool.Call(nodes[1].Addr(), MethodInvoke, body)
	if err == nil {
		t.Fatal("backup executed a mutating invocation")
	}
	if hint, ok := ParseNotResponsible(err); !ok || hint != nodes[0].Addr() {
		t.Fatalf("err = %v (hint %q)", err, hint)
	}
}

func TestCrossObjectRoutingAcrossGroups(t *testing.T) {
	// Two groups; objects land by id%2. A method on an object in group 0
	// invokes an object in group 1 — the node must forward it.
	nodes, dir := startStatic(t, NodeOptions{}, 1, 1)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	// Object 2 -> group 0, object 3 -> group 1.
	if err := c.CreateObject("Counter", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 3); err != nil {
		t.Fatal(err)
	}
	// ping_add on object 2 invokes add on object 3.
	res, err := c.Invoke(2, "ping_add", [][]byte{core.I64Bytes(3), core.I64Bytes(11)})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != 11 {
		t.Fatalf("ping_add = %d", core.BytesI64(res))
	}
	got, err := c.InvokeRead(3, "get", nil)
	if err != nil || core.BytesI64(got) != 11 {
		t.Fatalf("target count = %d, %v", core.BytesI64(got), err)
	}
	if nodes[0].Forwarded() == 0 {
		t.Fatal("cross-group invocation was not forwarded")
	}
}

func TestMigrationMovesObject(t *testing.T) {
	nodes, dir := startStatic(t, NodeOptions{}, 1, 1)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	// Object 4 -> group 0 by default.
	if err := c.CreateObject("Counter", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(4, "add", [][]byte{core.I64Bytes(42)}); err != nil {
		t.Fatal(err)
	}

	if err := c.Migrate(4, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// The object must now live in group 1 with its state intact.
	g, err := dir.Lookup(4)
	if err != nil || g.ID != 1 {
		t.Fatalf("post-migration lookup: group %d, %v", g.ID, err)
	}
	res, err := c.Invoke(4, "add", [][]byte{core.I64Bytes(1)})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != 43 {
		t.Fatalf("count after migration = %d", core.BytesI64(res))
	}
	// State present at the new primary, gone from the old one.
	if _, err := nodes[1].Runtime().GetValueField(4, "count"); err != nil {
		t.Fatalf("state missing at destination: %v", err)
	}
	if _, err := nodes[0].Runtime().GetValueField(4, "count"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("state still at source: %v", err)
	}
	// Other objects on group 0 were never disturbed (microshard property):
	// create one and use it during/after migration.
	if err := c.CreateObject("Counter", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(6, "add", [][]byte{core.I64Bytes(2)}); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverWithCoordinator(t *testing.T) {
	// Three coordinator replicas + one 3-node group; kill the primary and
	// expect a backup promotion, then keep invoking through the client.
	l := startLocal(t, coordinated([]int{3}, NodeOptions{}))
	client := l.Client
	if err := client.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke(1, "add", [][]byte{core.I64Bytes(9)}); err != nil {
		t.Fatal(err)
	}

	// Kill the primary.
	if err := l.Kill(0); err != nil {
		t.Fatal(err)
	}

	// The coordinator must promote a backup; the client must recover.
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := client.Invoke(1, "get", nil)
		if err == nil {
			if core.BytesI64(res) != 9 {
				t.Fatalf("post-failover count = %d (lost acknowledged write)", core.BytesI64(res))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover never completed: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Writes keep working at the new primary.
	res, err := client.Invoke(1, "add", [][]byte{core.I64Bytes(1)})
	if err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	if core.BytesI64(res) != 10 {
		t.Fatalf("post-failover add = %d", core.BytesI64(res))
	}
}

func TestRegisterTypeReachesAllReplicas(t *testing.T) {
	nodes, dir := startStatic(t, NodeOptions{}, 3)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		if _, ok := node.Runtime().Type("Counter"); !ok {
			t.Fatalf("node %d missing the type", i)
		}
	}
}

func TestWireRoundTrips(t *testing.T) {
	ir := &invokeReq{object: 7, method: "m", args: [][]byte{[]byte("a"), nil, []byte("ccc")}, readOnly: true}
	dec, err := decodeInvokeReq(encodeInvokeReq(ir))
	if err != nil {
		t.Fatal(err)
	}
	if dec.object != 7 || dec.method != "m" || !dec.readOnly || len(dec.args) != 3 || string(dec.args[2]) != "ccc" {
		t.Fatalf("decoded %+v", dec)
	}
	cr := &createReq{object: 9, typeName: "T"}
	dcr, err := decodeCreateReq(encodeCreateReq(cr))
	if err != nil || dcr.object != 9 || dcr.typeName != "T" {
		t.Fatalf("create round trip: %+v %v", dcr, err)
	}
	mr := &migrateReq{object: 4, destPrimary: "1.2.3.4:5", destGroup: 2}
	dmr, err := decodeMigrateReq(encodeMigrateReq(mr))
	if err != nil || dmr.destPrimary != "1.2.3.4:5" || dmr.destGroup != 2 {
		t.Fatalf("migrate round trip: %+v %v", dmr, err)
	}
}

func TestClusterTransaction(t *testing.T) {
	_, dir := startStatic(t, NodeOptions{}, 3)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 2; id++ {
		if err := c.CreateObject("Counter", id); err != nil {
			t.Fatal(err)
		}
	}
	results, err := c.InvokeTransaction([]core.TxCall{
		{Object: 1, Method: "add", Args: [][]byte{core.I64Bytes(5)}},
		{Object: 2, Method: "add", Args: [][]byte{core.I64Bytes(7)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(results[0]) != 5 || core.BytesI64(results[1]) != 7 {
		t.Fatalf("results = %d, %d", core.BytesI64(results[0]), core.BytesI64(results[1]))
	}
	// Both commits visible and replicated.
	got, err := c.InvokeRead(1, "get", nil)
	if err != nil || core.BytesI64(got) != 5 {
		t.Fatalf("get(1) = %d, %v", core.BytesI64(got), err)
	}
	got, err = c.InvokeRead(2, "get", nil)
	if err != nil || core.BytesI64(got) != 7 {
		t.Fatalf("get(2) = %d, %v", core.BytesI64(got), err)
	}
}

func TestClusterTransactionSpanningGroupsRejected(t *testing.T) {
	_, dir := startStatic(t, NodeOptions{}, 1, 1)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	// Objects 2 and 3 land in different groups.
	_, err := c.InvokeTransaction([]core.TxCall{
		{Object: 2, Method: "add", Args: [][]byte{core.I64Bytes(1)}},
		{Object: 3, Method: "add", Args: [][]byte{core.I64Bytes(1)}},
	})
	if err == nil {
		t.Fatal("cross-group transaction accepted")
	}
}

func TestNodeRestartRecoversState(t *testing.T) {
	l := startLocal(t, LocalOptions{Groups: []int{1}})
	c := l.Client
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(21)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Kill(0); err != nil {
		t.Fatal(err)
	}

	// Restart on the same data directory and address.
	if err := l.Restart(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	node2 := l.Slots[0].Node
	// Types and object state recovered from WAL/SSTs.
	if _, ok := node2.Runtime().Type("Counter"); !ok {
		t.Fatal("type lost across restart")
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		res, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(1)})
		if err == nil {
			if core.BytesI64(res) != 22 {
				t.Fatalf("count after restart = %d", core.BytesI64(res))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never recovered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDeposedPrimaryWithholdsAck pins the commit-time half of routing: an
// invocation that passed the route check while this node was primary and
// commits after the node learnt it was deposed finds an empty replication
// fan-out — its write lives on this node alone and must not be
// acknowledged. The runtime is driven directly to land in that window.
func TestDeposedPrimaryWithholdsAck(t *testing.T) {
	nodes, dir := startStatic(t, NodeOptions{}, 2)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	old, promoted := nodes[0], nodes[1]
	old.SetDirectory(shard.NewDirectory([]shard.Group{{ID: 0, Primary: promoted.Addr()}}))
	_, err := old.Runtime().Invoke(1, "add", [][]byte{core.I64Bytes(1)})
	if hint, ok := ParseNotResponsible(err); !ok || hint != promoted.Addr() {
		t.Fatalf("deposed primary acknowledged an unreplicated commit: err = %v", err)
	}
}

func TestLoadConfigFile(t *testing.T) {
	path := t.TempDir() + "/cluster.json"
	cfg := `{
  "groups": [
    {"id": 0, "primary": "10.0.0.1:7000", "backups": ["10.0.0.2:7000"]},
    {"id": 1, "primary": "10.0.1.1:7000"}
  ],
  "coordinators": ["10.0.9.1:7101"]
}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	fc, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Groups) != 2 || fc.Coordinators[0] != "10.0.9.1:7101" {
		t.Fatalf("parsed %+v", fc)
	}
	d := fc.Directory()
	g, err := d.Lookup(0)
	if err != nil || g.Primary != "10.0.0.1:7000" || len(g.Backups) != 1 {
		t.Fatalf("directory group %+v, %v", g, err)
	}
	if _, err := LoadConfigFile(path + ".missing"); err == nil {
		t.Fatal("missing file loaded")
	}
	bad := t.TempDir() + "/bad.json"
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if _, err := LoadConfigFile(bad); err == nil {
		t.Fatal("bad JSON loaded")
	}
}

func TestMigrationUnderConcurrentLoad(t *testing.T) {
	// The microshard claim (§4.2): migrating one object must not disrupt
	// computation on other objects, and the migrated object itself must
	// lose no committed writes.
	_, dir := startStatic(t, NodeOptions{}, 1, 1)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	// Object 4 (group 0) migrates; objects 6 and 8 (group 0) stay busy.
	for _, id := range []core.ObjectID{4, 6, 8} {
		if err := c.CreateObject("Counter", id); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var otherOps atomic.Int64
	var migratedOps atomic.Int64
	for _, id := range []core.ObjectID{6, 8} {
		wg.Add(1)
		go func(id core.ObjectID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Invoke(id, "add", [][]byte{core.I64Bytes(1)}); err != nil {
					t.Errorf("other-object invoke during migration: %v", err)
					return
				}
				otherOps.Add(1)
			}
		}(id)
	}
	// Writer on the migrating object: some invocations may fail during the
	// cutover window (clients retry in production); count the successes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Invoke(4, "add", [][]byte{core.I64Bytes(1)}); err == nil {
				migratedOps.Add(1)
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	if err := c.Migrate(4, 1); err != nil {
		t.Fatalf("migrate under load: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if otherOps.Load() == 0 {
		t.Fatal("other objects made no progress during migration")
	}
	// Every acknowledged write to the migrated object must be present.
	res, err := c.Invoke(4, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != migratedOps.Load() {
		t.Fatalf("migrated object count = %d, acknowledged writes = %d (lost writes)",
			core.BytesI64(res), migratedOps.Load())
	}
	if g, _ := dir.Lookup(4); g.ID != 1 {
		t.Fatalf("object 4 in group %d", g.ID)
	}
}
