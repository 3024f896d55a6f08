package vm

import "errors"

// Traps terminate a guest invocation without affecting the host.
var (
	ErrOutOfFuel      = errors.New("vm: fuel exhausted")
	ErrMemOutOfBounds = errors.New("vm: memory access out of bounds")
	ErrMemLimit       = errors.New("vm: memory growth past limit")
	ErrStackOverflow  = errors.New("vm: stack overflow") // more than maxCallDepth live frames
	ErrDivByZero      = errors.New("vm: integer divide by zero")
	ErrUnreachable    = errors.New("vm: unreachable executed")
	ErrNoSuchFunction = errors.New("vm: no such function")
	ErrHalted         = errors.New("vm: halted")
)

// Instance is one isolated execution context of a Module: its own linear
// memory, register file and fuel budget. Instances are not safe for
// concurrent use; LambdaStore creates (or pools) one per invocation, which is what
// gives the paper's "isolated from other invocations of the same method"
// property.
type Instance struct {
	module *Module
	hosts  []*HostFunc
	mem    []byte
	fuel   int64
	used   int64 // fuel consumed so far
	brk    int   // bump-allocator watermark (starts after the data segment)
	// hiWater is one past the highest memory byte written since the last
	// reset (stores, host MemWrites). ResetFast zeroes only [data, hiWater)
	// instead of re-imaging the whole linear memory.
	hiWater int

	// Engine state (compile.go): the module's linked code, the frame
	// register file, and the per-instance machine state. regFile persists
	// across resets — the register discipline writes every live slot before
	// reading it, so stale values can never leak into a later invocation.
	thmod   *thModule
	regFile []int64
	tstate  thState

	// Ctx lets host functions carry per-invocation state (e.g. the storage
	// transaction) without a global registry.
	Ctx any
}

// NewInstance links module against hosts (Module.Link; a no-op after the
// first) and instantiates it with the given fuel budget. fuel <= 0 means
// unlimited (used by trusted code paths and some benchmarks).
func NewInstance(module *Module, hosts *HostTable, fuel int64) (*Instance, error) {
	th, resolved, err := module.link(hosts)
	if err != nil {
		return nil, err
	}
	mem := make([]byte, module.MinPages*PageBytes)
	copy(mem, module.Data)
	return &Instance{
		module: module,
		hosts:  resolved,
		mem:    mem,
		fuel:   fuel,
		brk:    (len(module.Data) + 15) &^ 15,
		thmod:  th,
	}, nil
}

// Reset prepares the instance for reuse by a new invocation: memory is
// re-imaged from the data segment and fuel refilled. Reusing instances is
// the warm-start path (paper §2.1); creating a fresh one is the cold
// start. Both warm pools (core and the disaggregated baseline) use
// ResetFast; Reset is the reference the isolation tests compare it against.
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
