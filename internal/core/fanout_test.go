package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"lambdastore/internal/vm"
)

// fanSrc: a Fan object whose methods exercise the nested-call staging.
//
//	fan(hdr, n, m)   for each i < n stages ([self | t], m, 0) and starts
//	                 fan on t = self*1000+1+i, then waits for every call
//	twice(p) -> p    starts echo(p) on object 7 and waits on the handle twice
//	forget(p)        starts echo(p) on object 7 and never waits on it
//	echo(p) -> p
const fanSrc = `
func fan params=0 locals=6 export
  ;; locals: 0=n 1=m 2=i 3=buf 4=target 5=self
  push 1
  hostcall arg
  unpack.ptr
  load64
  local.set 0
  push 2
  hostcall arg
  unpack.ptr
  load64
  local.set 1
  hostcall self_id
  local.set 5
  push 0
  local.set 2
stage:
  local.get 2
  local.get 0
  ge_s
  jnz wait_init
  local.get 5
  push 1000
  mul
  push 1
  add
  local.get 2
  add
  local.set 4
  push 16
  hostcall alloc
  local.set 3
  local.get 3
  local.get 5
  store64
  local.get 3
  push 8
  add
  local.get 4
  store64
  local.get 3
  push 16
  hostcall call_arg
  push 8
  hostcall alloc
  local.set 3
  local.get 3
  local.get 1
  store64
  local.get 3
  push 8
  hostcall call_arg
  push 8
  hostcall alloc
  local.set 3
  local.get 3
  push 0
  store64
  local.get 3
  push 8
  hostcall call_arg
  local.get 4
  str "fan"
  hostcall invoke_start
  pop
  local.get 2
  push 1
  add
  local.set 2
  jmp stage
wait_init:
  push 0
  local.set 2
wait:
  local.get 2
  local.get 0
  ge_s
  jnz done
  local.get 2
  hostcall invoke_wait
  pop
  local.get 2
  push 1
  add
  local.set 2
  jmp wait
done:
  ret
end

;; start_echo(): stages this call's argument 0 and starts echo on object 7.
func start_echo params=0 locals=1
  push 0
  hostcall arg
  local.set 0
  local.get 0
  unpack.ptr
  local.get 0
  unpack.len
  hostcall call_arg
  push 7
  str "echo"
  hostcall invoke_start
  ret
end

func twice params=0 locals=2 export
  call start_echo
  local.set 0
  local.get 0
  hostcall invoke_wait
  pop
  local.get 0
  hostcall invoke_wait
  local.set 1
  local.get 1
  unpack.ptr
  local.get 1
  unpack.len
  hostcall set_result
  ret
end

func forget params=0 export
  call start_echo
  pop
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
`

// invokerFunc adapts a function to the Invoker interface.
type invokerFunc func(id ObjectID, method string, args [][]byte, cc CallCtx) ([]byte, error)

func (f invokerFunc) InvokeCtx(id ObjectID, method string, args [][]byte, cc CallCtx) ([]byte, error) {
	return f(id, method, args, cc)
}

// newFanRuntime is a runtime whose nested calls go through invoke, with a
// Fan object at each id.
func newFanRuntime(t *testing.T, invoke invokerFunc, ids ...ObjectID) *Runtime {
	t.Helper()
	rt, _ := newTestRuntime(t, Options{Invoker: invoke})
	typ, err := NewObjectType("Fan", nil,
		[]MethodInfo{{Name: "fan"}, {Name: "twice"}, {Name: "forget"}, {Name: "echo"}}, vm.MustAssemble(fanSrc))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := rt.CreateObject("Fan", id, CallCtx{}); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// view is where a nested call's argument lay in its caller's memory.
type view struct{ lo, hi uintptr }

func viewOf(b []byte) view {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return view{lo, lo + uintptr(len(b))}
}

func (v view) overlaps(w view) bool { return v.lo < w.hi && w.lo < v.hi }

// TestFanOutArgsStayTheCallersOwn fans a guest out to more targets than its
// argument slab has room for at first, with a distinct argument per target,
// and holds every dispatch until the last one is staged: by then the slab has
// been reallocated several times, and each callee must still see exactly its
// own bytes. Every callee fans out in turn while the root is still running,
// so its views must lie in a slab of its own. Run under -race, this is also
// the check that staging the next argument never writes where an in-flight
// call's view points. The second round reuses the pooled slabs.
func TestFanOutArgsStayTheCallersOwn(t *testing.T) {
	const width, childWidth = 48, 2
	ids := []ObjectID{1}
	for i := 0; i < width; i++ {
		ids = append(ids, ObjectID(1000+1+i))
	}

	var (
		rt      *Runtime
		mu      sync.Mutex
		arrived int
		all     chan struct{}
		views   map[ObjectID][]view // caller -> where its callees' args lay
	)
	invoke := func(id ObjectID, method string, args [][]byte, cc CallCtx) ([]byte, error) {
		mu.Lock()
		arrived++
		if arrived == width {
			close(all)
		}
		held := arrived <= width
		mu.Unlock()
		if held {
			<-all
		}
		if method != "fan" || len(args) != 3 || len(args[0]) != 16 {
			return nil, fmt.Errorf("%s.%s got %d args", id, method, len(args))
		}
		caller := ObjectID(BytesI64(args[0][:8]))
		if target := ObjectID(BytesI64(args[0][8:])); target != id {
			return nil, fmt.Errorf("call to %s carries %s's argument (from %s)", id, target, caller)
		}
		mu.Lock()
		for _, a := range args {
			views[caller] = append(views[caller], viewOf(a))
		}
		mu.Unlock()
		if id > 1000*1000 { // a grandchild: nothing left to check
			return nil, nil
		}
		return rt.InvokeCtx(id, method, args, cc)
	}
	rt = newFanRuntime(t, invoke, ids...)

	for round := 0; round < 2; round++ {
		arrived, all, views = 0, make(chan struct{}), map[ObjectID][]view{}
		mustInvoke(t, rt, 1, "fan", make([]byte, 16), I64Bytes(width), I64Bytes(childWidth))
		if got := len(views[1]); got != 3*width {
			t.Fatalf("round %d: the root staged %d args, want %d", round, got, 3*width)
		}
		for caller, vs := range views {
			if caller == 1 {
				continue
			}
			if len(vs) != 3*childWidth {
				t.Fatalf("round %d: %s staged %d args, want %d", round, caller, len(vs), 3*childWidth)
			}
			for _, v := range vs {
				for _, r := range views[1] {
					if v.overlaps(r) {
						t.Fatalf("round %d: %s staged an argument inside the root's slab", round, caller)
					}
				}
			}
		}
	}
}

// TestAsyncHandleJoinSemantics pins what a recycled async record must keep of
// a fresh one: waiting on a handle twice returns its result both times, and a
// handle never waited on is joined before the method's invocation returns.
func TestAsyncHandleJoinSemantics(t *testing.T) {
	var calls, finished atomic.Int32
	invoke := func(id ObjectID, method string, args [][]byte, cc CallCtx) ([]byte, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
		finished.Add(1)
		return append([]byte("echo:"), args[0]...), nil
	}
	rt := newFanRuntime(t, invoke, 1)

	for round := 0; round < 3; round++ {
		calls.Store(0)
		finished.Store(0)
		p := []byte(fmt.Sprintf("round %d", round))
		if got := mustInvoke(t, rt, 1, "twice", p); !bytes.Equal(got, append([]byte("echo:"), p...)) {
			t.Fatalf("round %d: twice = %q", round, got)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("round %d: twice dispatched %d calls, want 1", round, n)
		}
		mustInvoke(t, rt, 1, "forget", p)
		if n := finished.Load(); n != 2 {
			t.Fatalf("round %d: forget returned with %d of 2 calls finished: its handle was not joined", round, n)
		}
	}
}
