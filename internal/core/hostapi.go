package core

import (
	"encoding/binary"
	"fmt"
	"log"

	"lambdastore/internal/vm"
	"lambdastore/internal/wire"
)

// The host API is the paper's "key-value API and some utility functions"
// (§3) — the only window an object method has onto the world. Byte strings
// cross the boundary as (ptr, len) pairs into guest linear memory; host
// functions returning bytes allocate in the guest and return a packed
// (ptr<<32 | len) handle, or -1 for absent values.
//
//	self_id() -> id                     arg_count() -> n
//	arg(i) -> packed                    set_result(ptr, len)
//	time() -> unix nanos                rand() -> i64
//	log(ptr, len)                       alloc(n) -> ptr
//
//	val_get(f, flen) -> packed|-1       val_set(f, flen, v, vlen)
//	val_del(f, flen)
//	map_get(f, flen, k, klen) -> packed|-1
//	map_set(f, flen, k, klen, v, vlen)  map_del(f, flen, k, klen)
//	map_count(f, flen) -> n
//	list_len(f, flen) -> n              list_get(f, flen, i) -> packed|-1
//	list_push(f, flen, v, vlen)
//
//	call_arg(ptr, len)                  stage an argument
//	invoke(oid, m, mlen) -> packed      sync cross-object invocation
//	invoke_start(oid, m, mlen) -> h     parallel cross-object invocation
//	invoke_wait(h) -> packed
//
// Ownership at the boundary (the full table is in DESIGN.md §10). A state
// access copies its bytes once, not once per layer; everything else is
// borrowed:
//
//   - A guest view (vm.Instance.MemView) aliases linear memory: valid until
//     the host function next calls allocBytes/Alloc — which may grow, i.e.
//     reallocate, that memory — and never after the host call returns. So a
//     host function finishes with every view before it allocates in the
//     guest, and copies exactly once what outlives the call: the result, a
//     staged argument, a method name. A Backend is handed views and copies
//     what it keeps (a buffered write, a request body).
//   - A value a Backend returns is valid until its next call; the table
//     moves it into guest memory before making one.
//
// This file is the only place the ABI is written down. What differs between
// the aggregated runtime and the disaggregated baseline — where state lives
// and how a nested call travels — is behind Backend.

// Backend is where a running guest's state lives and how its nested calls
// travel. The aggregated runtime implements it over the invocation's local
// transaction (*invocation); the disaggregated baseline over one storage RPC
// per operation and a load-balancer hop per call (internal/baseline).
//
// key and value arguments are views of guest memory: an implementation
// copies what it keeps past the call. A returned value is valid until the
// next call on the Backend. Only Dispatch is called off the guest's
// goroutine.
type Backend interface {
	// Now and Rand serve the time and rand host calls.
	Now() int64
	Rand() int64

	// Get reads a value field, a map entry (key) or a list element (idx).
	Get(f *FieldDef, key []byte, idx uint64) (value []byte, present bool, err error)
	// Put and Del write a value field or a map entry (key).
	Put(f *FieldDef, key, value []byte) error
	Del(f *FieldDef, key []byte) error
	// Count returns a map field's entry count.
	Count(f *FieldDef) (int64, error)
	ListLen(f *FieldDef) (int64, error)
	ListPush(f *FieldDef, value []byte) error

	// BeginCall runs on the guest's goroutine before every nested call —
	// synchronous or parallel — and may refuse it; Dispatch then performs
	// the call, for a parallel one on a goroutine of its own.
	BeginCall() error
	Dispatch(target ObjectID, method string, args [][]byte) ([]byte, error)
}

// guest is the half of a running method that is the same on every
// architecture: who runs, with which arguments, the result sink, and the
// nested-call staging. Host functions reach it through vm.Instance.Ctx.
type guest struct {
	be     Backend
	obj    ObjectID
	typ    *ObjectType
	method *MethodInfo
	args   [][]byte
	result []byte

	// pendingArgs accumulate via the call_arg host function and are
	// consumed by the next invoke/invoke_start.
	pendingArgs [][]byte
	asyncs      []*asyncCall
}

// asyncCall is one in-flight parallel cross-object invocation (the paper's
// create_post fans store_post calls out "in parallel").
type asyncCall struct {
	done   chan struct{}
	result []byte
	err    error
}

// packed return-value helpers.
const packedNone = int64(-1)

func packPtrLen(ptr, n int64) int64 { return ptr<<32 | (n & 0xffffffff) }

// allocBytes copies data into guest memory and returns the packed handle.
func allocBytes(inst *vm.Instance, data []byte) (int64, error) {
	ptr, err := inst.Alloc(int64(len(data)))
	if err != nil {
		return 0, err
	}
	if err := inst.MemWrite(ptr, data); err != nil {
		return 0, err
	}
	return packPtrLen(ptr, int64(len(data))), nil
}

// field resolves the field named by the view (ptr, n) and checks its kind.
func (g *guest) field(inst *vm.Instance, ptr, n int64, kind FieldKind) (*FieldDef, error) {
	name, err := inst.MemView(ptr, n)
	if err != nil {
		return nil, err
	}
	f, ok := g.typ.fieldIdx[string(name)] // no alloc: map lookup special case
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchField, g.typ.Name, name)
	}
	if f.Kind != kind {
		return nil, fmt.Errorf("%w: field %s is %v, not %v", ErrWrongKind, f.Name, f.Kind, kind)
	}
	return f, nil
}

// read hands a state value to the guest: a packed handle, or -1 if absent.
func (g *guest) read(inst *vm.Instance, f *FieldDef, key []byte, idx uint64) (int64, error) {
	v, present, err := g.be.Get(f, key, idx)
	if err != nil {
		return 0, err
	}
	if !present {
		return packedNone, nil
	}
	return allocBytes(inst, v)
}

// takeCall reads the method name of a nested call, takes the arguments
// staged for it and clears the call with the backend.
func (g *guest) takeCall(inst *vm.Instance, ptr, n int64) (method string, args [][]byte, err error) {
	name, err := inst.MemView(ptr, n)
	if err != nil {
		return "", nil, err
	}
	args, g.pendingArgs = g.pendingArgs, nil
	return string(name), args, g.be.BeginCall()
}

// waitAsyncs joins every outstanding parallel call.
func (g *guest) waitAsyncs() {
	for _, ac := range g.asyncs {
		<-ac.done
	}
}

// asyncErr returns the first error among completed parallel calls.
func (g *guest) asyncErr() error {
	for _, ac := range g.asyncs {
		if ac.err != nil {
			return ac.err
		}
	}
	return nil
}

// EncodeArgs serializes an argument vector for cross-node invocation
// requests (shared with the cluster wire format).
func EncodeArgs(args [][]byte) []byte { return wire.AppendBytesSlice(nil, args) }

// DecodeArgs parses an argument vector into memory of its own.
func DecodeArgs(b []byte) ([][]byte, error) {
	r := wire.NewReader(b)
	return r.BytesSliceCopy(), r.ErrIn("core: args")
}

// hostTable is the complete host API: immutable, and shared by every
// instance of every type on either architecture.
var hostTable = newHostTable()

func newHostTable() *vm.HostTable {
	t := vm.NewHostTable()

	reg := func(name string, nargs int, hasRet bool, cost int64,
		fn func(g *guest, inst *vm.Instance, a []int64) (int64, error)) {
		t.Register(vm.HostFunc{
			Name: name, NArgs: nargs, HasRet: hasRet, Cost: cost,
			Fn: func(inst *vm.Instance, a []int64) (int64, error) {
				g, ok := inst.Ctx.(*guest)
				if !ok || g == nil {
					return 0, fmt.Errorf("core: host call outside an invocation")
				}
				return fn(g, inst, a)
			},
		})
	}

	// --- identity, arguments, result ---

	reg("self_id", 0, true, 4, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		return int64(g.obj), nil
	})

	reg("arg_count", 0, true, 4, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		return int64(len(g.args)), nil
	})

	reg("arg", 1, true, 16, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		i := a[0]
		if i < 0 || i >= int64(len(g.args)) {
			return 0, fmt.Errorf("core: argument index %d out of range (have %d)", i, len(g.args))
		}
		return allocBytes(inst, g.args[i])
	})

	reg("set_result", 2, false, 16, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		data, err := inst.MemRead(a[0], a[1]) // retained: the one copy
		if err != nil {
			return 0, err
		}
		g.result = data
		return 0, nil
	})

	// --- utilities ---

	reg("time", 0, true, 8, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		return g.be.Now(), nil
	})

	reg("rand", 0, true, 8, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		return g.be.Rand(), nil
	})

	reg("log", 2, false, 32, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		msg, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		log.Printf("[%s %s.%s] %s", g.obj, g.typ.Name, g.method.Name, msg)
		return 0, nil
	})

	t.Register(vm.HostFunc{
		Name: "alloc", NArgs: 1, HasRet: true, Cost: 8,
		Fn: func(inst *vm.Instance, a []int64) (int64, error) {
			return inst.Alloc(a[0])
		},
	})

	// --- value fields ---

	reg("val_get", 2, true, 32, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		f, err := g.field(inst, a[0], a[1], FieldValue)
		if err != nil {
			return 0, err
		}
		return g.read(inst, f, nil, 0)
	})

	reg("val_set", 4, false, 48, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		f, err := g.field(inst, a[0], a[1], FieldValue)
		if err != nil {
			return 0, err
		}
		v, err := inst.MemView(a[2], a[3])
		if err != nil {
			return 0, err
		}
		return 0, g.be.Put(f, nil, v)
	})

	reg("val_del", 2, false, 32, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		f, err := g.field(inst, a[0], a[1], FieldValue)
		if err != nil {
			return 0, err
		}
		return 0, g.be.Del(f, nil)
	})

	// --- map fields ---

	reg("map_get", 4, true, 32, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		f, err := g.field(inst, a[0], a[1], FieldMap)
		if err != nil {
			return 0, err
		}
		key, err := inst.MemView(a[2], a[3])
		if err != nil {
			return 0, err
		}
		return g.read(inst, f, key, 0)
	})

	reg("map_set", 6, false, 48, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		f, err := g.field(inst, a[0], a[1], FieldMap)
		if err != nil {
			return 0, err
		}
		key, err := inst.MemView(a[2], a[3])
		if err != nil {
			return 0, err
		}
		v, err := inst.MemView(a[4], a[5])
		if err != nil {
			return 0, err
		}
		return 0, g.be.Put(f, key, v)
	})

	reg("map_del", 4, false, 32, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		f, err := g.field(inst, a[0], a[1], FieldMap)
		if err != nil {
			return 0, err
		}
		key, err := inst.MemView(a[2], a[3])
		if err != nil {
			return 0, err
		}
		return 0, g.be.Del(f, key)
	})

	reg("map_count", 2, true, 128, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		f, err := g.field(inst, a[0], a[1], FieldMap)
		if err != nil {
			return 0, err
		}
		return g.be.Count(f)
	})

	// --- list fields ---

	reg("list_len", 2, true, 32, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		f, err := g.field(inst, a[0], a[1], FieldList)
		if err != nil {
			return 0, err
		}
		return g.be.ListLen(f)
	})

	reg("list_get", 3, true, 32, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		f, err := g.field(inst, a[0], a[1], FieldList)
		if err != nil {
			return 0, err
		}
		if a[2] < 0 {
			return packedNone, nil
		}
		return g.read(inst, f, nil, uint64(a[2]))
	})

	reg("list_push", 4, false, 48, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		f, err := g.field(inst, a[0], a[1], FieldList)
		if err != nil {
			return 0, err
		}
		v, err := inst.MemView(a[2], a[3])
		if err != nil {
			return 0, err
		}
		return 0, g.be.ListPush(f, v)
	})

	// --- cross-object invocation ---

	reg("call_arg", 2, false, 16, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		data, err := inst.MemRead(a[0], a[1]) // retained: the one copy
		if err != nil {
			return 0, err
		}
		g.pendingArgs = append(g.pendingArgs, data)
		return 0, nil
	})

	reg("invoke", 3, true, 256, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		method, args, err := g.takeCall(inst, a[1], a[2])
		if err != nil {
			return 0, err
		}
		result, err := g.be.Dispatch(ObjectID(a[0]), method, args)
		if err != nil {
			return 0, err
		}
		return allocBytes(inst, result)
	})

	reg("invoke_start", 3, true, 256, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		method, args, err := g.takeCall(inst, a[1], a[2])
		if err != nil {
			return 0, err
		}
		ac := &asyncCall{done: make(chan struct{})}
		g.asyncs = append(g.asyncs, ac)
		target := ObjectID(a[0])
		go func() {
			defer close(ac.done)
			ac.result, ac.err = g.be.Dispatch(target, method, args)
		}()
		return int64(len(g.asyncs) - 1), nil
	})

	reg("invoke_wait", 1, true, 64, func(g *guest, inst *vm.Instance, a []int64) (int64, error) {
		if a[0] < 0 || a[0] >= int64(len(g.asyncs)) {
			return 0, fmt.Errorf("core: bad async handle %d", a[0])
		}
		ac := g.asyncs[a[0]]
		<-ac.done
		if ac.err != nil {
			return 0, ac.err
		}
		return allocBytes(inst, ac.result)
	})

	return t
}

// I64Bytes renders an int64 as its 8-byte little-endian representation —
// the conventional encoding for numeric arguments and results crossing the
// invocation boundary.
func I64Bytes(v int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// BytesI64 parses an 8-byte little-endian int64 (shorter inputs read as
// zero-extended).
func BytesI64(b []byte) int64 {
	var tmp [8]byte
	copy(tmp[:], b)
	return int64(binary.LittleEndian.Uint64(tmp[:]))
}
