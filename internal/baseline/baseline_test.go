package baseline

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/replication"
	"lambdastore/internal/retwis"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/vm"
)

// stack is StartLocal's deployment under the names the tests read.
type stack struct {
	primary *StorageNode
	backups []*StorageNode
	compute *ComputeNode
	lb      *LoadBalancer
	pool    *rpc.Pool
	local   *Local
}

func startStack(t *testing.T, nBackups int) *stack {
	t.Helper()
	l, err := StartLocal(LocalOptions{Replicas: 1 + nBackups, DataRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return &stack{primary: l.Primary, backups: l.Backups, compute: l.Compute, lb: l.LB, pool: l.pool, local: l}
}

func (s *stack) registerType(t *testing.T, typ *core.ObjectType) {
	t.Helper()
	if err := s.local.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
}

func (s *stack) create(t *testing.T, id uint64, typeName string) {
	t.Helper()
	if err := s.local.Create(id, typeName); err != nil {
		t.Fatal(err)
	}
}

func TestDisaggregatedRetwisEndToEnd(t *testing.T) {
	s := startStack(t, 2)
	s.registerType(t, retwis.MustType())
	for id := uint64(1); id <= 3; id++ {
		s.create(t, id, retwis.TypeName)
	}
	client := NewDirectClient(s.compute.Addr(), nil)
	defer client.Close()

	if _, err := client.Invoke(1, "create_account", [][]byte{[]byte("alice")}); err != nil {
		t.Fatal(err)
	}
	// bob and carol follow alice (nested add_follower goes via the LB).
	for id := uint64(2); id <= 3; id++ {
		if _, err := client.Invoke(id, "follow", [][]byte{core.I64Bytes(1)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := client.Invoke(1, "create_post", [][]byte{[]byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != 2 {
		t.Fatalf("deliveries = %d", core.BytesI64(res))
	}
	raw, err := client.Invoke(2, "get_timeline", [][]byte{core.I64Bytes(10)})
	if err != nil {
		t.Fatal(err)
	}
	posts, err := retwis.DecodeTimeline(raw)
	if err != nil || len(posts) != 1 || posts[0].Msg != "hello" {
		t.Fatalf("timeline %+v, %v", posts, err)
	}
	// Nested calls went through the LB.
	if s.lb.dispatched.Value() == 0 {
		t.Fatal("no request traversed the load balancer")
	}
	// Writes replicated to storage backups.
	for i, b := range s.backups {
		n, err := b.db.Get(core.ListLenKey(2, "timeline"))
		if err != nil || core.DecodeU64(n) != 1 {
			t.Fatalf("backup %d timeline len: %v %v", i, n, err)
		}
	}
}

func TestLBClientPath(t *testing.T) {
	s := startStack(t, 0)
	s.registerType(t, retwis.MustType())
	s.create(t, 1, retwis.TypeName)
	client := NewClient(s.lb.Addr(), nil)
	defer client.Close()
	if _, err := client.Invoke(1, "create_account", [][]byte{[]byte("a")}); err != nil {
		t.Fatal(err)
	}
	got, err := client.Invoke(1, "get_name", nil)
	if err != nil || string(got) != "a" {
		t.Fatalf("get_name = %q, %v", got, err)
	}
	if got := s.lb.dispatched.Value(); got != 2 {
		t.Fatalf("lb.dispatched = %d", got)
	}
	// Both requests are durably logged.
	if _, err := s.lb.logDB.Get(logKey(1)); err != nil {
		t.Fatalf("request 1 not logged: %v", err)
	}
	if _, err := s.lb.logDB.Get(logKey(2)); err != nil {
		t.Fatalf("request 2 not logged: %v", err)
	}
}

func TestNoIsolationInBaseline(t *testing.T) {
	// The defining gap (paper §5: "the disaggregated variant provides no
	// consistency guarantees"): a method that writes then traps leaves the
	// partial write behind, unlike the aggregated design.
	src := `
func write_then_trap params=0 export
  str "v"
  str "dirty"
  hostcall val_set
  unreachable
end
func read_v params=0 export
  str "v"
  hostcall val_get
  dup
  push -1
  eq
  jnz absent
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall set_result
  ret
absent:
  pop
  ret
end`
	mod := vm.MustAssemble(src)
	typ, err := core.NewObjectType("Trapper",
		[]core.FieldDef{{Name: "v", Kind: core.FieldValue}},
		[]core.MethodInfo{{Name: "write_then_trap"}, {Name: "read_v"}}, mod)
	if err != nil {
		t.Fatal(err)
	}
	s := startStack(t, 0)
	s.registerType(t, typ)
	s.create(t, 9, "Trapper")
	client := NewDirectClient(s.compute.Addr(), nil)
	defer client.Close()

	if _, err := client.Invoke(9, "write_then_trap", nil); err == nil {
		t.Fatal("trap reported success")
	}
	got, err := client.Invoke(9, "read_v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "dirty" {
		t.Fatalf("read_v = %q; expected the partial write to leak (no atomicity)", got)
	}
}

func TestFieldReqCodec(t *testing.T) {
	r := &fieldReq{object: 5, field: "f", key: []byte("k"), value: []byte("v"), idx: 9}
	dec, err := decodeFieldReq(encodeFieldReq(r))
	if err != nil || dec.object != 5 || dec.field != "f" || string(dec.key) != "k" ||
		string(dec.value) != "v" || dec.idx != 9 {
		t.Fatalf("decoded %+v, %v", dec, err)
	}
	if _, err := decodeFieldReq([]byte{0xff}); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestJobReqCodec(t *testing.T) {
	r := &jobReq{object: 3, method: "m", args: [][]byte{[]byte("a"), nil}}
	dec, err := decodeJobReq(encodeJobReq(r))
	if err != nil || dec.object != 3 || dec.method != "m" || len(dec.args) != 2 {
		t.Fatalf("decoded %+v, %v", dec, err)
	}
}

func TestStorageOpsDirect(t *testing.T) {
	s := startStack(t, 1)
	pool := s.pool
	addr := s.primary.Addr()

	// Value ops.
	if _, err := pool.Call(addr, MethodValSet, encodeFieldReq(&fieldReq{object: 1, field: "f", value: []byte("x")})); err != nil {
		t.Fatal(err)
	}
	resp, err := pool.Call(addr, MethodValGet, encodeFieldReq(&fieldReq{object: 1, field: "f"}))
	if err != nil {
		t.Fatal(err)
	}
	v, present, err := decodePresence(resp)
	if err != nil || !present || string(v) != "x" {
		t.Fatalf("valget = %q %v %v", v, present, err)
	}
	if _, err := pool.Call(addr, MethodValDel, encodeFieldReq(&fieldReq{object: 1, field: "f"})); err != nil {
		t.Fatal(err)
	}
	resp, _ = pool.Call(addr, MethodValGet, encodeFieldReq(&fieldReq{object: 1, field: "f"}))
	if _, present, _ := decodePresence(resp); present {
		t.Fatal("deleted value still present")
	}

	// List ops with concurrent pushes: single-op atomicity must hold.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				body := encodeFieldReq(&fieldReq{object: 2, field: "l", value: []byte(fmt.Sprintf("%d-%d", w, i))})
				if _, err := pool.Call(addr, MethodListPush, body); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	resp, err = pool.Call(addr, MethodListLen, encodeFieldReq(&fieldReq{object: 2, field: "l"}))
	if err != nil {
		t.Fatal(err)
	}
	if n := core.DecodeU64(resp); n != 200 {
		t.Fatalf("list len = %d, want 200 (lost pushes)", n)
	}

	// Map ops.
	if _, err := pool.Call(addr, MethodMapSet, encodeFieldReq(&fieldReq{object: 3, field: "m", key: []byte("k"), value: []byte("v")})); err != nil {
		t.Fatal(err)
	}
	resp, err = pool.Call(addr, MethodMapCount, encodeFieldReq(&fieldReq{object: 3, field: "m"}))
	if err != nil || core.DecodeU64(resp) != 1 {
		t.Fatalf("map count: %v %v", resp, err)
	}
	// Duplicate create rejected.
	if _, err := pool.Call(addr, MethodCreate, EncodeCreateReq(7, "T")); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Call(addr, MethodCreate, EncodeCreateReq(7, "T")); err == nil ||
		!strings.Contains(err.Error(), "exists") {
		t.Fatalf("duplicate create err = %v", err)
	}
}

// TestListPushLocksPerObject pins the storage node's list-push lock: held
// per object, across the ship. Under an injected replication delay, pushes
// to distinct objects overlap — their write-sets share replication frames —
// while concurrent pushes to one list still number its entries 0…n-1 and
// reach the backup in that order.
func TestListPushLocksPerObject(t *testing.T) {
	s := startStack(t, 1)
	fault.Add(fault.Rule{Site: replication.MethodApplyBatch, To: s.backups[0].Addr(), Action: fault.Delay, Delay: 20 * time.Millisecond})
	t.Cleanup(fault.Reset)
	frames := func() uint64 { return fault.Counters()[replication.MethodApplyBatch+"."+fault.Delay.String()] }
	const n = 8
	pushAll := func(object func(i int) core.ObjectID) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := encodeFieldReq(&fieldReq{object: object(i), field: "l", value: []byte(fmt.Sprint(i))})
				if _, err := s.pool.Call(s.primary.Addr(), MethodListPush, body); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
	}

	// Distinct objects: a lock per list lets the pushes ship together.
	before := frames()
	pushAll(func(i int) core.ObjectID { return core.ObjectID(100 + i) })
	if got := frames() - before; got >= n {
		t.Fatalf("%d pushes to distinct lists shipped in %d frames: they ran one at a time", n, got)
	}

	// One list: every push took the next index, and the backup holds the
	// same list — a stale length shipped last would have shrunk it.
	pushAll(func(int) core.ObjectID { return 7 })
	for _, db := range []*store.DB{s.primary.db, s.backups[0].db} {
		seen := map[string]bool{}
		for i := uint64(0); i < n; i++ {
			v, err := db.Get(core.ListEntryKey(7, "l", i))
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			seen[string(v)] = true
		}
		v, err := db.Get(core.ListLenKey(7, "l"))
		if err != nil || core.DecodeU64(v) != n || len(seen) != n {
			t.Fatalf("list of %d distinct pushes holds %d distinct entries, length %v (%v)", n, len(seen), v, err)
		}
	}
}
