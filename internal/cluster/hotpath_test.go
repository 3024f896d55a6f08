package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/vm"
)

// boxType is a one-field object whose methods hand their argument straight
// through: put stores it, get returns what is stored, and echo — read-only
// and deterministic, so its results are cached per argument vector —
// returns it.
func boxType(t *testing.T) *core.ObjectType {
	t.Helper()
	mod, err := vm.Assemble(`
func put params=0 locals=1 export
  push 0
  hostcall arg
  local.set 0
  str "v"
  local.get 0
  unpack.ptr
  local.get 0
  unpack.len
  hostcall val_set
  ret
end

func get params=0 locals=1 export
  str "v"
  hostcall val_get
  local.set 0
  local.get 0
  push -1
  eq
  jnz absent
  local.get 0
  unpack.ptr
  local.get 0
  unpack.len
  hostcall set_result
absent:
  ret
end

func echo params=0 locals=1 export
  push 0
  hostcall arg
  local.set 0
  local.get 0
  unpack.ptr
  local.get 0
  unpack.len
  hostcall set_result
  ret
end
`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	typ, err := core.NewObjectType("Box",
		[]core.FieldDef{{Name: "v", Kind: core.FieldValue}},
		[]core.MethodInfo{
			{Name: "put"},
			{Name: "get", ReadOnly: true, Deterministic: true},
			{Name: "echo", ReadOnly: true, Deterministic: true},
		}, mod)
	if err != nil {
		t.Fatalf("type: %v", err)
	}
	return typ
}

// TestInvokeArgsAliasOnlyInsideHandler: the invoke handler's args are views
// into the request frame, which the rpc server recycles once the response is
// written. Writers store distinct values while readers churn frames with
// cached reads on the same connections; every stored value must read back
// byte-identical on every replica, and a cached result for one argument
// vector must never answer another.
func TestInvokeArgsAliasOnlyInsideHandler(t *testing.T) {
	const writers, puts, readers = 8, 100, 4
	l := startLocal(t, LocalOptions{Groups: []int{3}, Node: NodeOptions{Runtime: core.Options{CacheEntries: 64}}})
	c := l.Client
	if err := c.RegisterType(boxType(t)); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		if err := c.CreateObject("Box", core.ObjectID(w)); err != nil {
			t.Fatal(err)
		}
	}
	value := func(w, i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("writer %d put %d;", w, i)), 1+(w*puts+i)%40)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for r := 0; r < readers; r++ {
		churn.Add(1)
		go func(r int) {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Few enough distinct vectors per object that most reads hit.
				arg := []byte(fmt.Sprintf("reader %d arg %d", r, i%8))
				got, err := c.InvokeRead(core.ObjectID(i%writers), "echo", [][]byte{arg})
				if err != nil || !bytes.Equal(got, arg) {
					t.Errorf("echo(%q) = %q, %v", arg, got, err)
					return
				}
			}
		}(r)
	}
	var write sync.WaitGroup
	for w := 0; w < writers; w++ {
		write.Add(1)
		go func(w int) {
			defer write.Done()
			for i := 0; i < puts; i++ {
				want := value(w, i)
				if _, err := c.Invoke(core.ObjectID(w), "put", [][]byte{want}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if got, err := c.InvokeRead(core.ObjectID(w), "get", nil); err != nil || !bytes.Equal(got, want) {
					t.Errorf("writer %d read back %q, %v; want %q", w, got, err, want)
					return
				}
			}
		}(w)
	}
	write.Wait()
	close(stop)
	churn.Wait()
	for w := 0; w < writers && !t.Failed(); w++ {
		want := value(w, puts-1)
		for i, n := range l.Nodes() {
			if got, err := n.Runtime().GetValueField(core.ObjectID(w), "v"); err != nil || !bytes.Equal(got, want) {
				t.Errorf("node %d stores %q for object %d, %v; want %q", i, got, w, err, want)
			}
		}
	}
}

// TestHotInvokeAllocBound guards a cached read end to end — client, three
// nodes and the wire between them, all in this process. What is left per
// read is the serving node's handler goroutine and the client's copy of the
// reply; the envelope, the invoke request, the admission and the cache hit
// allocate nothing once warm.
func TestHotInvokeAllocBound(t *testing.T) {
	l := startLocal(t, LocalOptions{Groups: []int{3}, Node: NodeOptions{Runtime: core.Options{CacheEntries: 64}}})
	c := l.Client
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(5)}); err != nil {
		t.Fatal(err)
	}
	args := [][]byte{core.I64Bytes(40)}
	read := func() {
		if res, err := c.InvokeRead(1, "get", args); err != nil || core.BytesI64(res) != 5 {
			t.Fatalf("get = %d, %v", core.BytesI64(res), err)
		}
	}
	for i := 0; i < 100; i++ {
		read()
	}
	allocs := testing.AllocsPerRun(300, read)
	if allocs > 4 && !raceEnabled {
		t.Fatalf("a cached read allocates %.1f objects, want <= 4", allocs)
	}
	t.Logf("cached read: %.2f allocs", allocs)
}
