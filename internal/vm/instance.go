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
	// mem is the materialized prefix of linear memory; size is the logical
	// size (what mem.size, mem.grow, Alloc and MaxPages see), and
	// len(mem) <= size. Bytes past mem read as zero: an access there
	// materializes them first (materialize), and nothing else allocates.
	mem  []byte
	size int64
	fuel int64
	used int64 // fuel consumed so far
	brk  int   // bump-allocator watermark (starts after the data segment)
	// hiWater is one past the highest memory byte written since the last
	// reset (stores, memcopy, host MemWrites). ResetFast zeroes only
	// [data, hiWater) instead of re-imaging the whole linear memory.
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
// first) and instantiates it with the given fuel budget. Every call is
// metered: a budget <= 0 traps ErrOutOfFuel at the first charged block.
func NewInstance(module *Module, hosts *HostTable, fuel int64) (*Instance, error) {
	th, resolved, err := module.link(hosts)
	if err != nil {
		return nil, err
	}
	mem := make([]byte, module.startLen())
	copy(mem, module.Data)
	return &Instance{
		module: module,
		hosts:  resolved,
		mem:    mem,
		size:   int64(module.MinPages) * PageBytes,
		fuel:   fuel,
		brk:    (len(module.Data) + 15) &^ 15,
		thmod:  th,
	}, nil
}

// materializeStep is the granularity in which a backing grows.
const materializeStep = 4 << 10

// startLen is the backing a new instance of m starts with: the longest any
// instance of m has materialized within MinPages, and at least the data
// segment, in whole steps.
func (m *Module) startLen() int {
	n := max(int(m.lk.memHint.Load()), len(m.Data))
	n = (n + materializeStep - 1) &^ (materializeStep - 1)
	return min(n, m.MinPages*PageBytes)
}

// materialize is every bounds check's slow path: it reports whether
// [addr, addr+n) lies inside the logical memory and, if so, grows the
// backing to cover it — at least doubling, in whole steps, never past the
// logical size. It charges no fuel.
func (inst *Instance) materialize(addr, n int64) bool {
	if addr < 0 || n < 0 || addr > inst.size-n {
		return false
	}
	have := int64(len(inst.mem))
	if addr+n <= have {
		return true
	}
	want := max(2*have, (addr+n+materializeStep-1)&^(materializeStep-1))
	grown := make([]byte, min(want, inst.size))
	copy(grown, inst.mem)
	inst.mem = grown
	lk := inst.module.lk
	hint := min(int64(len(grown)), int64(inst.module.MinPages)*PageBytes)
	for {
		cur := lk.memHint.Load()
		if hint <= cur || lk.memHint.CompareAndSwap(cur, hint) {
			return true
		}
	}
}

// Reset prepares the instance for reuse by a new invocation: memory is
// re-imaged from the data segment and fuel refilled. Reusing instances is
// the warm-start path (paper §2.1); creating a fresh one is the cold
// start. Both warm pools (core and the disaggregated baseline) use
// ResetFast; Reset is the reference the isolation tests compare it against.
func (inst *Instance) Reset(fuel int64) {
	if !inst.dropGrown() {
		clear(inst.mem)
	}
	inst.resetCommon(fuel)
}

// ResetFast is Reset without the full memory re-image: only the region the
// previous invocation actually dirtied — [len(Data), hiWater), as tracked
// by the store opcodes, memcopy and host MemWrite — is zeroed, and the data
// segment is re-copied over any in-place corruption. A method that touches a few
// KB of a 64 KB memory pays for a few KB. Isolation is preserved: every
// write path through the instance raises hiWater, so no byte written by
// the previous invocation survives.
func (inst *Instance) ResetFast(fuel int64) {
	if !inst.dropGrown() {
		nd := len(inst.module.Data)
		hi := min(inst.hiWater, len(inst.mem))
		if nd < hi {
			clear(inst.mem[nd:hi])
		}
	}
	inst.resetCommon(fuel)
}

// dropGrown replaces a backing that outgrew MinPages — the invocation grew
// its memory — with a fresh one of the module's start length, so a pooled
// instance does not keep a grown memory past the invocation that grew it.
// It reports whether it did.
func (inst *Instance) dropGrown() bool {
	if cap(inst.mem) <= inst.module.MinPages*PageBytes {
		return false
	}
	inst.mem = make([]byte, inst.module.startLen())
	return true
}

func (inst *Instance) resetCommon(fuel int64) {
	copy(inst.mem, inst.module.Data)
	inst.size = int64(inst.module.MinPages) * PageBytes
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

// memCopy executes memcopy: it checks both ranges and charges ceil(n/8)
// fuel before any byte moves, then copies with memmove semantics. Running
// out consumes the remainder, as block fuel does, so FuelUsed reports the
// full budget.
func (inst *Instance) memCopy(dst, src, n int64) error {
	have := int64(len(inst.mem))
	if (n < 0 || src < 0 || dst < 0 || src > have-n || dst > have-n) &&
		(src < 0 || dst < 0 || !inst.materialize(max(src, dst), n)) {
		return ErrMemOutOfBounds
	}
	cost := (n + 7) / 8
	if inst.fuel < cost {
		inst.used += inst.fuel
		inst.fuel = 0
		return ErrOutOfFuel
	}
	inst.fuel -= cost
	inst.used += cost
	copy(inst.mem[dst:dst+n], inst.mem[src:src+n])
	inst.noteWrite(dst + n)
	return nil
}

// FuelUsed returns the fuel consumed since instantiation or the last Reset.
func (inst *Instance) FuelUsed() int64 { return inst.used }

// MemSize returns the current (logical) linear-memory size in bytes.
func (inst *Instance) MemSize() int64 { return inst.size }

// MemRead returns a copy of guest memory [ptr, ptr+n).
func (inst *Instance) MemRead(ptr, n int64) ([]byte, error) {
	if (ptr < 0 || n < 0 || ptr > int64(len(inst.mem))-n) && !inst.materialize(ptr, n) {
		return nil, ErrMemOutOfBounds
	}
	return append([]byte(nil), inst.mem[ptr:ptr+n]...), nil
}

// MemView returns guest memory [ptr, ptr+n) in place, without copying. A
// view holds the bytes the range held when it was taken until guest memory
// is next written — a MemWrite (Alloc's result is written with one), a
// guest instruction, a reset — so a host function reads its views, never
// writes through one, and finishes with them (or copies what it retains)
// before it writes. A later MemView or MemRead may materialize more memory
// and move the backing: an earlier view then no longer aliases guest
// memory, but no write has happened since, so it still reads the same
// bytes — which is what lets a host call take two views (a key and a
// value) and use both. The capacity is clipped so an append can never
// scribble over guest memory.
func (inst *Instance) MemView(ptr, n int64) ([]byte, error) {
	if (ptr < 0 || n < 0 || ptr > int64(len(inst.mem))-n) && !inst.materialize(ptr, n) {
		return nil, ErrMemOutOfBounds
	}
	return inst.mem[ptr : ptr+n : ptr+n], nil
}

// MemWrite copies data into guest memory at ptr.
func (inst *Instance) MemWrite(ptr int64, data []byte) error {
	if (ptr < 0 || ptr > int64(len(inst.mem))-int64(len(data))) && !inst.materialize(ptr, int64(len(data))) {
		return ErrMemOutOfBounds
	}
	copy(inst.mem[ptr:], data)
	inst.noteWrite(ptr + int64(len(data)))
	return nil
}

// Alloc reserves n bytes of guest memory via the bump allocator, growing
// the logical memory if needed, and returns the guest address. Host
// functions use it to hand variable-length results back to guests; the
// MemWrite that fills the bytes is what materializes them.
func (inst *Instance) Alloc(n int64) (int64, error) {
	if n < 0 {
		return 0, ErrMemOutOfBounds
	}
	need := int64(inst.brk) + n
	if need > inst.size {
		pages := (need - inst.size + PageBytes - 1) / PageBytes
		if err := inst.grow(pages * PageBytes); err != nil {
			return 0, err
		}
	}
	ptr := int64(inst.brk)
	inst.brk += int((n + 15) &^ 15)
	return ptr, nil
}

// grow extends the logical memory by delta bytes, respecting MaxPages. It
// allocates nothing: the new bytes materialize when first touched.
func (inst *Instance) grow(delta int64) error {
	if delta < 0 || delta > int64(inst.module.MaxPages)*PageBytes-inst.size {
		return ErrMemLimit
	}
	inst.size += delta
	return nil
}
