package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Execution limits.
const (
	maxValueStack = 64 << 10
	maxCallDepth  = 128
)

// Traps terminate a guest invocation without affecting the host.
var (
	ErrOutOfFuel      = errors.New("vm: fuel exhausted")
	ErrMemOutOfBounds = errors.New("vm: memory access out of bounds")
	ErrMemLimit       = errors.New("vm: memory growth past limit")
	ErrStackOverflow  = errors.New("vm: stack overflow")
	ErrStackUnderflow = errors.New("vm: stack underflow")
	ErrDivByZero      = errors.New("vm: integer divide by zero")
	ErrUnreachable    = errors.New("vm: unreachable executed")
	ErrNoSuchFunction = errors.New("vm: no such function")
	ErrHalted         = errors.New("vm: halted")
)

// Instance is one isolated execution context of a Module: its own linear
// memory, value stack and fuel budget. Instances are not safe for concurrent
// use; LambdaStore creates (or pools) one per invocation, which is what
// gives the paper's "isolated from other invocations of the same method"
// property.
type Instance struct {
	module *Module
	hosts  []*HostFunc
	mem    []byte
	stack  []int64
	fuel   int64
	used   int64 // fuel consumed so far
	brk    int   // bump-allocator watermark (starts after the data segment)
	// hiWater is one past the highest memory byte written since the last
	// reset (stores, host MemWrites). ResetFast zeroes only [data, hiWater)
	// instead of re-imaging the whole linear memory.
	hiWater int

	// Threaded-tier state (compile.go): the compiled module (nil when the
	// module fell back to the interpreter), the frame register file, and
	// the per-instance machine state. regFile persists across resets —
	// the register discipline writes every live slot before reading it,
	// so stale values can never leak into a later invocation.
	thmod   *thModule
	regFile []int64
	tstate  thState
	tier    Tier

	// Ctx lets host functions carry per-invocation state (e.g. the storage
	// transaction) without a global registry.
	Ctx any
}

// NewInstance instantiates module with imports resolved against hosts and
// the given fuel budget. fuel <= 0 means unlimited (used by trusted code
// paths and some benchmarks).
func NewInstance(module *Module, hosts *HostTable, fuel int64) (*Instance, error) {
	var resolved []*HostFunc
	if len(module.Imports) > 0 {
		if hosts == nil {
			return nil, fmt.Errorf("vm: module has imports but no host table")
		}
		var err error
		resolved, err = hosts.resolve(module.Imports)
		if err != nil {
			return nil, err
		}
	}
	mem := make([]byte, module.MinPages*PageBytes)
	copy(mem, module.Data)
	brk := (len(module.Data) + 15) &^ 15
	return &Instance{
		module: module,
		hosts:  resolved,
		mem:    mem,
		fuel:   fuel,
		brk:    brk,
		thmod:  module.threadedFor(resolved),
	}, nil
}

// SetTier selects the execution engine for subsequent calls. The default
// is TierThreaded; instances of modules the compiler rejected run on the
// interpreter regardless.
func (inst *Instance) SetTier(t Tier) { inst.tier = t }

// EffectiveTier reports the engine calls actually run on: TierInterp when
// the interpreter was selected or the module was not compiled.
func (inst *Instance) EffectiveTier() Tier {
	if inst.tier == TierThreaded && inst.thmod != nil {
		return TierThreaded
	}
	return TierInterp
}

// Reset prepares the instance for reuse by a new invocation: memory is
// re-imaged from the data segment, the stack cleared and fuel refilled.
// Reusing instances is the warm-start path (paper §2.1); creating a fresh
// one is the cold start. Both warm pools (core and the disaggregated
// baseline) use ResetFast; Reset is the reference the isolation tests
// compare it against.
func (inst *Instance) Reset(fuel int64) {
	if len(inst.mem) > inst.module.MinPages*PageBytes {
		inst.mem = inst.mem[:inst.module.MinPages*PageBytes]
	}
	for i := range inst.mem {
		inst.mem[i] = 0
	}
	inst.resetCommon(fuel)
}

// ResetFast is Reset without the full memory re-image: only the region the
// previous invocation actually dirtied — [len(Data), hiWater), as tracked
// by the store opcodes and host MemWrite — is zeroed, and the data segment
// is re-copied over any in-place corruption. A method that touches a few
// KB of a 64 KB memory pays for a few KB. Isolation is preserved: every
// write path through the instance raises hiWater, so no byte written by
// the previous invocation survives.
func (inst *Instance) ResetFast(fuel int64) {
	if len(inst.mem) > inst.module.MinPages*PageBytes {
		inst.mem = inst.mem[:inst.module.MinPages*PageBytes]
	}
	nd := len(inst.module.Data)
	hi := inst.hiWater
	if hi > len(inst.mem) {
		hi = len(inst.mem)
	}
	for i := nd; i < hi; i++ {
		inst.mem[i] = 0
	}
	inst.resetCommon(fuel)
}

func (inst *Instance) resetCommon(fuel int64) {
	copy(inst.mem, inst.module.Data)
	inst.stack = inst.stack[:0]
	inst.fuel = fuel
	inst.used = 0
	inst.brk = (len(inst.module.Data) + 15) &^ 15
	inst.hiWater = 0
	inst.Ctx = nil
}

// noteWrite raises the dirty high-water mark consulted by ResetFast.
func (inst *Instance) noteWrite(end int64) {
	if int(end) > inst.hiWater {
		inst.hiWater = int(end)
	}
}

// FuelUsed returns the fuel consumed since instantiation or the last Reset.
func (inst *Instance) FuelUsed() int64 { return inst.used }

// MemSize returns the current linear-memory size in bytes.
func (inst *Instance) MemSize() int64 { return int64(len(inst.mem)) }

// Module returns the instance's module.
func (inst *Instance) Module() *Module { return inst.module }

// MemRead returns a copy of guest memory [ptr, ptr+n).
func (inst *Instance) MemRead(ptr, n int64) ([]byte, error) {
	if ptr < 0 || n < 0 || ptr+n > int64(len(inst.mem)) {
		return nil, ErrMemOutOfBounds
	}
	return append([]byte(nil), inst.mem[ptr:ptr+n]...), nil
}

// MemView returns guest memory [ptr, ptr+n) in place, without copying. The
// view aliases the instance's linear memory: it is valid only until the
// next Alloc (which may grow and reallocate the memory), the next guest
// instruction, or the next reset, so a host function must finish with
// every view — or copy what it retains — before any of those. The
// capacity is clipped so an append can never scribble over guest memory.
func (inst *Instance) MemView(ptr, n int64) ([]byte, error) {
	if ptr < 0 || n < 0 || ptr+n > int64(len(inst.mem)) {
		return nil, ErrMemOutOfBounds
	}
	return inst.mem[ptr : ptr+n : ptr+n], nil
}

// MemWrite copies data into guest memory at ptr.
func (inst *Instance) MemWrite(ptr int64, data []byte) error {
	if ptr < 0 || ptr+int64(len(data)) > int64(len(inst.mem)) {
		return ErrMemOutOfBounds
	}
	copy(inst.mem[ptr:], data)
	inst.noteWrite(ptr + int64(len(data)))
	return nil
}

// Alloc reserves n bytes of guest memory via the bump allocator, growing
// memory if needed, and returns the guest address. Host functions use it to
// hand variable-length results back to guests.
func (inst *Instance) Alloc(n int64) (int64, error) {
	if n < 0 {
		return 0, ErrMemOutOfBounds
	}
	need := int64(inst.brk) + n
	if need > int64(len(inst.mem)) {
		pages := (need - int64(len(inst.mem)) + PageBytes - 1) / PageBytes
		if err := inst.grow(pages * PageBytes); err != nil {
			return 0, err
		}
	}
	ptr := int64(inst.brk)
	inst.brk += int((n + 15) &^ 15)
	return ptr, nil
}

// grow extends linear memory by delta bytes, respecting MaxPages.
func (inst *Instance) grow(delta int64) error {
	if delta < 0 {
		return ErrMemLimit
	}
	newSize := int64(len(inst.mem)) + delta
	if newSize > int64(inst.module.MaxPages)*PageBytes {
		return ErrMemLimit
	}
	grown := make([]byte, newSize)
	copy(grown, inst.mem)
	inst.mem = grown
	return nil
}

// frame is one activation record.
type frame struct {
	fn     *Func
	pc     int
	locals []int64
	base   int // value-stack height at entry
}

// Call runs the named function with args and returns the value left on top
// of the stack (0 if the function leaves none).
func (inst *Instance) Call(name string, args ...int64) (int64, error) {
	idx := inst.module.FuncIndex(name)
	if idx < 0 {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchFunction, name)
	}
	return inst.CallIndex(idx, args...)
}

// CallIndex runs function idx. See Call.
func (inst *Instance) CallIndex(idx int, args ...int64) (int64, error) {
	fn := &inst.module.Funcs[idx]
	if len(args) != fn.NumParams {
		return 0, fmt.Errorf("vm: %q takes %d args, got %d", fn.Name, fn.NumParams, len(args))
	}
	// The threaded tier handles a whole call tree; a reentrant call from a
	// host function mid-run takes the interpreter, whose frames are
	// independent of the register file.
	if inst.tier == TierThreaded && inst.thmod != nil && !inst.tstate.active {
		return inst.callThreaded(idx, args)
	}
	locals := make([]int64, fn.NumParams+fn.NumLocals)
	copy(locals, args)
	base := len(inst.stack)
	err := inst.run(frame{fn: fn, locals: locals, base: base})
	if err != nil {
		inst.stack = inst.stack[:base]
		return 0, err
	}
	var ret int64
	if len(inst.stack) > base {
		ret = inst.stack[len(inst.stack)-1]
	}
	inst.stack = inst.stack[:base]
	return ret, nil
}

// trapf annotates a trap with its location.
func trapf(f *frame, pc int, err error) error {
	return fmt.Errorf("%w (in %s at pc %d)", err, f.fn.Name, pc)
}

// run is the interpreter loop. It manages an explicit frame stack so guest
// recursion depth is bounded by maxCallDepth, not the Go stack.
func (inst *Instance) run(entry frame) error {
	frames := make([]frame, 1, 8)
	frames[0] = entry
	metered := inst.fuel > 0

	for {
		f := &frames[len(frames)-1]
		code := f.fn.code
		bfuel := f.fn.blockFuel
		pc := f.pc

	dispatch:
		for {
			if pc >= len(code) {
				// Validation guarantees terminating opcodes, so this is
				// unreachable; guard anyway.
				return trapf(f, pc, ErrUnreachable)
			}
			// Fuel is charged per basic block: block leaders carry the whole
			// straight-line cost, every other pc charges nothing. A resume
			// after call/ret lands mid-block on code already paid for at the
			// leader. Exhaustion consumes the remainder so FuelUsed reports
			// the full budget, as the per-instruction scheme did.
			if metered {
				if bf := int64(bfuel[pc]); bf != 0 {
					if inst.fuel < bf {
						inst.used += inst.fuel
						inst.fuel = 0
						return trapf(f, pc, ErrOutOfFuel)
					}
					inst.fuel -= bf
					inst.used += bf
				}
			}
			in := code[pc]
			switch in.op {
			case opNop:
				pc++
			case opUnreachable:
				return trapf(f, pc, ErrUnreachable)

			case opPush:
				if len(inst.stack) >= maxValueStack {
					return trapf(f, pc, ErrStackOverflow)
				}
				inst.stack = append(inst.stack, in.arg)
				pc++
			case opPop:
				if len(inst.stack) <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				inst.stack = inst.stack[:len(inst.stack)-1]
				pc++
			case opDup:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				if n >= maxValueStack {
					return trapf(f, pc, ErrStackOverflow)
				}
				inst.stack = append(inst.stack, inst.stack[n-1])
				pc++
			case opSwap:
				n := len(inst.stack)
				if n-1 <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				inst.stack[n-1], inst.stack[n-2] = inst.stack[n-2], inst.stack[n-1]
				pc++

			case opLocalGet:
				if len(inst.stack) >= maxValueStack {
					return trapf(f, pc, ErrStackOverflow)
				}
				inst.stack = append(inst.stack, f.locals[in.arg])
				pc++
			case opLocalSet:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				f.locals[in.arg] = inst.stack[n-1]
				inst.stack = inst.stack[:n-1]
				pc++
			case opLocalTee:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				f.locals[in.arg] = inst.stack[n-1]
				pc++

			case opJmp:
				pc = int(in.arg)
			case opJz, opJnz:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				v := inst.stack[n-1]
				inst.stack = inst.stack[:n-1]
				if (v == 0) == (in.op == opJz) {
					pc = int(in.arg)
				} else {
					pc++
				}

			case opCall:
				if len(frames) >= maxCallDepth {
					return trapf(f, pc, ErrStackOverflow)
				}
				callee := &inst.module.Funcs[in.arg]
				n := len(inst.stack)
				if n-callee.NumParams < f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				locals := make([]int64, callee.NumParams+callee.NumLocals)
				copy(locals, inst.stack[n-callee.NumParams:])
				inst.stack = inst.stack[:n-callee.NumParams]
				f.pc = pc + 1
				frames = append(frames, frame{fn: callee, locals: locals, base: len(inst.stack)})
				break dispatch

			case opRet:
				// The callee's results (anything above its base) stay on the
				// stack for the caller.
				frames = frames[:len(frames)-1]
				if len(frames) == 0 {
					return nil
				}
				break dispatch

			case opHalt:
				return trapf(f, pc, ErrHalted)

			case opAdd, opSub, opMul, opDivS, opRemS, opAnd, opOr, opXor, opShl, opShrS, opShrU,
				opEq, opNe, opLtS, opGtS, opLeS, opGeS:
				n := len(inst.stack)
				if n-1 <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				b := inst.stack[n-1]
				a := inst.stack[n-2]
				inst.stack = inst.stack[:n-1]
				var r int64
				switch in.op {
				case opAdd:
					r = a + b
				case opSub:
					r = a - b
				case opMul:
					r = a * b
				case opDivS:
					if b == 0 || (a == math.MinInt64 && b == -1) {
						return trapf(f, pc, ErrDivByZero)
					}
					r = a / b
				case opRemS:
					if b == 0 {
						return trapf(f, pc, ErrDivByZero)
					}
					r = a % b
				case opAnd:
					r = a & b
				case opOr:
					r = a | b
				case opXor:
					r = a ^ b
				case opShl:
					r = a << (uint64(b) & 63)
				case opShrS:
					r = a >> (uint64(b) & 63)
				case opShrU:
					r = int64(uint64(a) >> (uint64(b) & 63))
				case opEq:
					r = b2i(a == b)
				case opNe:
					r = b2i(a != b)
				case opLtS:
					r = b2i(a < b)
				case opGtS:
					r = b2i(a > b)
				case opLeS:
					r = b2i(a <= b)
				case opGeS:
					r = b2i(a >= b)
				}
				inst.stack[len(inst.stack)-1] = r
				pc++

			case opEqz:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				inst.stack[n-1] = b2i(inst.stack[n-1] == 0)
				pc++

			case opLoad8U:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				addr := inst.stack[n-1]
				if addr < 0 || addr >= int64(len(inst.mem)) {
					return trapf(f, pc, ErrMemOutOfBounds)
				}
				inst.stack[n-1] = int64(inst.mem[addr])
				pc++
			case opLoad64:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				addr := inst.stack[n-1]
				if addr < 0 || addr+8 > int64(len(inst.mem)) {
					return trapf(f, pc, ErrMemOutOfBounds)
				}
				inst.stack[n-1] = int64(binary.LittleEndian.Uint64(inst.mem[addr:]))
				pc++
			case opStore8:
				n := len(inst.stack)
				if n-1 <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				v := inst.stack[n-1]
				addr := inst.stack[n-2]
				inst.stack = inst.stack[:n-2]
				if addr < 0 || addr >= int64(len(inst.mem)) {
					return trapf(f, pc, ErrMemOutOfBounds)
				}
				inst.mem[addr] = byte(v)
				inst.noteWrite(addr + 1)
				pc++
			case opStore64:
				n := len(inst.stack)
				if n-1 <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				v := inst.stack[n-1]
				addr := inst.stack[n-2]
				inst.stack = inst.stack[:n-2]
				if addr < 0 || addr+8 > int64(len(inst.mem)) {
					return trapf(f, pc, ErrMemOutOfBounds)
				}
				binary.LittleEndian.PutUint64(inst.mem[addr:], uint64(v))
				inst.noteWrite(addr + 8)
				pc++

			case opMemSize:
				if len(inst.stack) >= maxValueStack {
					return trapf(f, pc, ErrStackOverflow)
				}
				inst.stack = append(inst.stack, int64(len(inst.mem)))
				pc++
			case opMemGrow:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				delta := inst.stack[n-1]
				old := int64(len(inst.mem))
				if err := inst.grow(delta); err != nil {
					return trapf(f, pc, err)
				}
				inst.stack[n-1] = old
				pc++

			case opHostCall:
				hf := inst.hosts[in.arg]
				n := len(inst.stack)
				if n-hf.NArgs < f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				if metered {
					if inst.fuel < hf.Cost {
						return trapf(f, pc, ErrOutOfFuel)
					}
					inst.fuel -= hf.Cost
					inst.used += hf.Cost
				}
				args := make([]int64, hf.NArgs)
				copy(args, inst.stack[n-hf.NArgs:])
				inst.stack = inst.stack[:n-hf.NArgs]
				ret, err := hf.Fn(inst, args)
				if err != nil {
					return trapf(f, pc, &HostError{Err: err})
				}
				if hf.HasRet {
					if len(inst.stack) >= maxValueStack {
						return trapf(f, pc, ErrStackOverflow)
					}
					inst.stack = append(inst.stack, ret)
				}
				pc++

			case opPushPair:
				if len(inst.stack)+1 >= maxValueStack {
					return trapf(f, pc, ErrStackOverflow)
				}
				inst.stack = append(inst.stack, in.arg>>32, in.arg&0xffffffff)
				pc++
			case opUnpackPtr:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				inst.stack[n-1] = int64(uint64(inst.stack[n-1]) >> 32)
				pc++
			case opUnpackLen:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				inst.stack[n-1] &= 0xffffffff
				pc++
			case opAddI:
				n := len(inst.stack)
				if n <= f.base {
					return trapf(f, pc, ErrStackUnderflow)
				}
				inst.stack[n-1] += in.arg
				pc++
			case opLocalAddI:
				f.locals[in.arg>>32] += int64(int32(in.arg & 0xffffffff))
				pc++

			default:
				return trapf(f, pc, fmt.Errorf("vm: unknown opcode %d", in.op))
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
