package core

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"sync"

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
//     staged argument, a buffered write (txn.put), a method name.
//   - invocation.key/val hold the storage key built last and the value read
//     last: names and map keys go view → key scratch; values go store → val
//     scratch → guest memory, with no slice allocated in between.

// packed return-value helpers.
const packedNone = int64(-1)

func packPtrLen(ptr, n int64) int64 { return ptr<<32 | (n & 0xffffffff) }

// UnpackPtrLen splits a packed (ptr, len) handle (exported for tests and
// documentation).
func UnpackPtrLen(p int64) (ptr, n int64) { return p >> 32, p & 0xffffffff }

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

// ctxOf extracts the invocation bound to the instance.
func ctxOf(inst *vm.Instance) (*invocation, error) {
	iv, ok := inst.Ctx.(*invocation)
	if !ok || iv == nil {
		return nil, fmt.Errorf("core: host call outside an invocation")
	}
	return iv, nil
}

// EncodeArgs serializes an argument vector for cross-node invocation
// requests (shared with the cluster wire format).
func EncodeArgs(args [][]byte) []byte { return wire.AppendBytesSlice(nil, args) }

// DecodeArgs parses an argument vector.
func DecodeArgs(b []byte) ([][]byte, error) {
	items, _, err := wire.BytesSlice(b)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(items))
	for i, it := range items {
		out[i] = append([]byte(nil), it...)
	}
	return out, nil
}

var hostRandMu sync.Mutex
var hostRand = rand.New(rand.NewSource(0x1a3b5c7d))

// newHostTable builds the complete host API. The table is immutable and
// shared by every instance of every type.
func newHostTable() *vm.HostTable {
	t := vm.NewHostTable()

	reg := func(name string, nargs int, hasRet bool, cost int64,
		fn func(iv *invocation, inst *vm.Instance, a []int64) (int64, error)) {
		t.Register(vm.HostFunc{
			Name: name, NArgs: nargs, HasRet: hasRet, Cost: cost,
			Fn: func(inst *vm.Instance, a []int64) (int64, error) {
				iv, err := ctxOf(inst)
				if err != nil {
					return 0, err
				}
				return fn(iv, inst, a)
			},
		})
	}

	// --- identity, arguments, result ---

	reg("self_id", 0, true, 4, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		return int64(iv.obj), nil
	})

	reg("arg_count", 0, true, 4, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		return int64(len(iv.args)), nil
	})

	reg("arg", 1, true, 16, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		i := a[0]
		if i < 0 || i >= int64(len(iv.args)) {
			return 0, fmt.Errorf("core: argument index %d out of range (have %d)", i, len(iv.args))
		}
		return allocBytes(inst, iv.args[i])
	})

	reg("set_result", 2, false, 16, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		data, err := inst.MemRead(a[0], a[1]) // retained: the one copy
		if err != nil {
			return 0, err
		}
		iv.result = data
		return 0, nil
	})

	// --- utilities ---

	reg("time", 0, true, 8, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		iv.nocache = true
		return iv.rt.opts.Clock(), nil
	})

	reg("rand", 0, true, 8, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		iv.nocache = true
		hostRandMu.Lock()
		defer hostRandMu.Unlock()
		return hostRand.Int63(), nil
	})

	reg("log", 2, false, 32, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		msg, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		log.Printf("[%s %s.%s] %s", iv.obj, iv.typ.Name, iv.method.Name, msg)
		return 0, nil
	})

	t.Register(vm.HostFunc{
		Name: "alloc", NArgs: 1, HasRet: true, Cost: 8,
		Fn: func(inst *vm.Instance, a []int64) (int64, error) {
			return inst.Alloc(a[0])
		},
	})

	// --- value fields ---

	reg("val_get", 2, true, 32, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		name, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := iv.fieldOf(name, FieldValue)
		if err != nil {
			return 0, err
		}
		v, present, err := iv.tGet(iv.fieldKey(subValue, f.Name))
		if err != nil {
			return 0, err
		}
		if !present {
			return packedNone, nil
		}
		return allocBytes(inst, v)
	})

	reg("val_set", 4, false, 48, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		if err := iv.requireMutable(); err != nil {
			return 0, err
		}
		name, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := iv.fieldOf(name, FieldValue)
		if err != nil {
			return 0, err
		}
		v, err := inst.MemView(a[2], a[3])
		if err != nil {
			return 0, err
		}
		return 0, iv.tPut(iv.fieldKey(subValue, f.Name), v)
	})

	reg("val_del", 2, false, 32, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		if err := iv.requireMutable(); err != nil {
			return 0, err
		}
		name, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := iv.fieldOf(name, FieldValue)
		if err != nil {
			return 0, err
		}
		return 0, iv.tDel(iv.fieldKey(subValue, f.Name))
	})

	// --- map fields ---

	reg("map_get", 4, true, 32, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		name, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := iv.fieldOf(name, FieldMap)
		if err != nil {
			return 0, err
		}
		key, err := inst.MemView(a[2], a[3])
		if err != nil {
			return 0, err
		}
		v, present, err := iv.tGet(iv.mapKey(f.Name, key))
		if err != nil {
			return 0, err
		}
		if !present {
			return packedNone, nil
		}
		return allocBytes(inst, v)
	})

	reg("map_set", 6, false, 48, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		if err := iv.requireMutable(); err != nil {
			return 0, err
		}
		name, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := iv.fieldOf(name, FieldMap)
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
		return 0, iv.tPut(iv.mapKey(f.Name, key), v)
	})

	reg("map_del", 4, false, 32, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		if err := iv.requireMutable(); err != nil {
			return 0, err
		}
		name, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := iv.fieldOf(name, FieldMap)
		if err != nil {
			return 0, err
		}
		key, err := inst.MemView(a[2], a[3])
		if err != nil {
			return 0, err
		}
		return 0, iv.tDel(iv.mapKey(f.Name, key))
	})

	reg("map_count", 2, true, 128, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		name, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := iv.fieldOf(name, FieldMap)
		if err != nil {
			return 0, err
		}
		// Range reads are not captured by the point read-set; exclude from
		// the result cache.
		iv.nocache = true
		var n int64
		err = iv.tScan(iv.mapKey(f.Name, nil), func(k, v []byte) bool {
			n++
			return true
		})
		return n, err
	})

	// --- list fields ---

	reg("list_len", 2, true, 32, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		name, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := iv.fieldOf(name, FieldList)
		if err != nil {
			return 0, err
		}
		v, _, err := iv.tGet(iv.fieldKey(subListLen, f.Name))
		if err != nil {
			return 0, err
		}
		return int64(decodeU64(v)), nil
	})

	reg("list_get", 3, true, 32, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		name, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := iv.fieldOf(name, FieldList)
		if err != nil {
			return 0, err
		}
		idx := a[2]
		if idx < 0 {
			return packedNone, nil
		}
		v, present, err := iv.tGet(iv.listEntryKey(f.Name, uint64(idx)))
		if err != nil {
			return 0, err
		}
		if !present {
			return packedNone, nil
		}
		return allocBytes(inst, v)
	})

	reg("list_push", 4, false, 48, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		if err := iv.requireMutable(); err != nil {
			return 0, err
		}
		name, err := inst.MemView(a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := iv.fieldOf(name, FieldList)
		if err != nil {
			return 0, err
		}
		v, err := inst.MemView(a[2], a[3])
		if err != nil {
			return 0, err
		}
		cur, _, err := iv.tGet(iv.fieldKey(subListLen, f.Name))
		if err != nil {
			return 0, err
		}
		n := decodeU64(cur)
		if err := iv.tPut(iv.listEntryKey(f.Name, n), v); err != nil {
			return 0, err
		}
		return 0, iv.tPutU64(iv.fieldKey(subListLen, f.Name), n+1)
	})

	// --- cross-object invocation ---

	reg("call_arg", 2, false, 16, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		data, err := inst.MemRead(a[0], a[1]) // retained: the one copy
		if err != nil {
			return 0, err
		}
		iv.pendingArgs = append(iv.pendingArgs, data)
		return 0, nil
	})

	reg("invoke", 3, true, 256, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		method, err := inst.MemView(a[1], a[2])
		if err != nil {
			return 0, err
		}
		args := iv.pendingArgs
		iv.pendingArgs = nil
		result, err := iv.crossInvoke(ObjectID(a[0]), string(method), args)
		if err != nil {
			return 0, err
		}
		return allocBytes(inst, result)
	})

	reg("invoke_start", 3, true, 256, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		method, err := inst.MemView(a[1], a[2])
		if err != nil {
			return 0, err
		}
		args := iv.pendingArgs
		iv.pendingArgs = nil
		return iv.startAsync(ObjectID(a[0]), string(method), args)
	})

	reg("invoke_wait", 1, true, 64, func(iv *invocation, inst *vm.Instance, a []int64) (int64, error) {
		result, err := iv.waitAsync(a[0])
		if err != nil {
			return 0, err
		}
		return allocBytes(inst, result)
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
