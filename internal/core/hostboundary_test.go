package core

import (
	"bytes"
	"testing"

	"lambdastore/internal/vm"
)

// keeperSrc: a Keeper object whose keep(p) hands the same guest bytes to
// every host call that retains them, then destroys those bytes: it
// scribbles over them, grows linear memory (so the instance's memory is
// reallocated mid-invocation) and scribbles again. Whatever the host kept
// must be a copy taken when the call was made.
//
//	keep(p) -> p     retains p as result, staged argument (echoed back by a
//	                 nested self-invocation), value field, list element and
//	                 map entry
//	echo(p) -> p     returns its argument
//	swap(p, q) -> q  sets p as its result, scribbles over p, then sets q
//	snap(p) -> p     sets p as its result, then scribbles over p
const keeperSrc = `
;; scribble(ptr, n): overwrite [ptr, ptr+n) with 0xEE.
func scribble params=2
loop:
  local.get 1
  push 0
  le_s
  jnz done
  local.get 0
  push 238
  store8
  local.get 0
  push 1
  add
  local.set 0
  local.get 1
  push 1
  sub
  local.set 1
  jmp loop
done:
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

func snap params=0 locals=1 export
  push 0
  hostcall arg
  local.set 0
  local.get 0
  unpack.ptr
  local.get 0
  unpack.len
  hostcall set_result
  local.get 0
  unpack.ptr
  local.get 0
  unpack.len
  call scribble
  ret
end

func swap params=0 locals=1 export
  call snap
  push 1
  hostcall arg
  local.set 0
  local.get 0
  unpack.ptr
  local.get 0
  unpack.len
  hostcall set_result
  ret
end

func keep params=0 locals=3 export
  ;; locals: 0=ptr 1=len 2=echoed (packed)
  push 0
  hostcall arg
  local.set 2
  local.get 2
  unpack.ptr
  local.set 0
  local.get 2
  unpack.len
  local.set 1
  local.get 0
  local.get 1
  hostcall set_result
  local.get 0
  local.get 1
  hostcall call_arg
  str "kept"
  local.get 0
  local.get 1
  hostcall val_set
  str "log"
  local.get 0
  local.get 1
  hostcall list_push
  str "m"
  str "k"
  local.get 0
  local.get 1
  hostcall map_set
  ;; destroy the source bytes, before and after the memory moves
  local.get 0
  local.get 1
  call scribble
  push 200000
  hostcall alloc
  pop
  local.get 0
  local.get 1
  call scribble
  ;; the staged argument comes back through a nested invocation
  hostcall self_id
  str "echo"
  hostcall invoke
  local.set 2
  str "echoed"
  local.get 2
  unpack.ptr
  local.get 2
  unpack.len
  hostcall val_set
  ret
end
`

func newKeeperType(t *testing.T) *ObjectType {
	t.Helper()
	mod, err := vm.Assemble(keeperSrc)
	if err != nil {
		t.Fatalf("assemble keeper: %v", err)
	}
	typ, err := NewObjectType("Keeper",
		[]FieldDef{
			{Name: "kept", Kind: FieldValue},
			{Name: "echoed", Kind: FieldValue},
			{Name: "log", Kind: FieldList},
			{Name: "m", Kind: FieldMap},
		},
		[]MethodInfo{{Name: "keep"}, {Name: "echo"}, {Name: "snap"}, {Name: "swap"}}, mod)
	if err != nil {
		t.Fatalf("keeper type: %v", err)
	}
	return typ
}

// TestRetainedBytesSurviveGuestMemoryReuse checks the host-boundary
// ownership rule from the retaining side: set_result, call_arg and buffered
// writes keep copies, so neither the guest overwriting the source, nor
// linear memory being reallocated by growth, nor the next invocation's
// ResetFast of the same pooled instance can change them.
func TestRetainedBytesSurviveGuestMemoryReuse(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newKeeperType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Keeper", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	check := func(round int, p, result []byte) {
		t.Helper()
		if !bytes.Equal(result, p) {
			t.Fatalf("round %d: result = %x, want %x", round, result, p)
		}
		for _, field := range []string{"kept", "echoed"} {
			if v, err := rt.GetValueField(1, field); err != nil || !bytes.Equal(v, p) {
				t.Fatalf("round %d: field %s = %x (%v), want %x", round, field, v, err, p)
			}
		}
		if v, err := rt.ListGet(1, "log", uint64(round)); err != nil || !bytes.Equal(v, p) {
			t.Fatalf("round %d: log[%d] = %x (%v), want %x", round, round, v, err, p)
		}
		if v, err := rt.GetMapEntry(1, "m", []byte("k")); err != nil || !bytes.Equal(v, p) {
			t.Fatalf("round %d: m[k] = %x (%v), want %x", round, v, err, p)
		}
	}
	first := bytes.Repeat([]byte{0x11}, 48)
	firstResult := mustInvoke(t, rt, 1, "keep", first)
	check(0, first, firstResult)

	// The second call reuses the pooled instance (ResetFast zeroes what the
	// first one dirtied) and the pooled invocation scratch.
	second := bytes.Repeat([]byte{0x22}, 48)
	check(1, second, mustInvoke(t, rt, 1, "keep", second))
	if warm, _ := rt.PoolStats(); warm == 0 {
		t.Fatal("no warm instance start: the second call did not reuse an instance")
	}
	if !bytes.Equal(firstResult, first) {
		t.Fatalf("first call's result changed under the second call: %x", firstResult)
	}
}

// TestResultIsTheLastSetResult checks set_result's snapshot semantics: the
// result is the bytes the range held when set_result was called, whatever
// the guest writes there afterwards, and a second call replaces the first
// whole, a shorter result included. The staged bytes are lent, so both are
// checked through Invoke and through InvokeTo into one reused buffer.
func TestResultIsTheLastSetResult(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newKeeperType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Keeper", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	long, short := bytes.Repeat([]byte{0x33}, 48), bytes.Repeat([]byte{0x44}, 16)
	if got := mustInvoke(t, rt, 1, "snap", long); !bytes.Equal(got, long) {
		t.Fatalf("snap = %x, want the bytes as set_result saw them, %x", got, long)
	}
	if got := mustInvoke(t, rt, 1, "swap", long, short); !bytes.Equal(got, short) {
		t.Fatalf("swap = %x, want the second set_result's %x", got, short)
	}
	var buf []byte
	for round := 0; round < 3; round++ {
		got, err := rt.InvokeTo(&buf, 1, "snap", [][]byte{long}, CallCtx{})
		if err != nil || !bytes.Equal(got, long) {
			t.Fatalf("round %d: snap into a buffer = %x, %v", round, got, err)
		}
		buf = buf[:0]
		if got, err = rt.InvokeTo(&buf, 1, "swap", [][]byte{long, short}, CallCtx{}); err != nil || !bytes.Equal(got, short) {
			t.Fatalf("round %d: swap into a buffer = %x, %v", round, got, err)
		}
		buf = buf[:0]
	}
}

// TestStoredReadSetSurvivesTxnReuse checks that the result cache copies the
// read set it is handed into the entry: the version key is built in the
// pooled invocation's key scratch, which the next invocation overwrites, and
// the cached entry must still validate afterwards.
func TestStoredReadSetSurvivesTxnReuse(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{CacheEntries: 64})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	for id := ObjectID(1); id <= 2; id++ {
		if err := rt.CreateObject("Counter", id, CallCtx{}); err != nil {
			t.Fatal(err)
		}
		mustInvoke(t, rt, id, "add", I64Bytes(int64(id)*100))
	}
	if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != 100 { // miss: stores its read set
		t.Fatalf("get(1) = %d", got)
	}
	if got := BytesI64(mustInvoke(t, rt, 2, "get")); got != 200 { // reuses the key scratch
		t.Fatalf("get(2) = %d", got)
	}
	before := rt.Cache().Stats()
	if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != 100 {
		t.Fatalf("cached get(1) = %d", got)
	}
	after := rt.Cache().Stats()
	if after.Hits != before.Hits+1 || after.Validations != before.Validations {
		t.Fatalf("second get(1): hits %d -> %d, validations %d -> %d; want a validated hit",
			before.Hits, after.Hits, before.Validations, after.Validations)
	}
}
