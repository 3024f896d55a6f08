package vm

// The execution engine: a linked module (Module.Link) is translated once
// into token-threaded code — per-function arrays of Go closures over the
// register form typed in ir.go — and every instance of the module executes
// the closures. There is no other engine in the product; the switch
// interpreter in interp_test.go is the reference the differential suites
// hold this one to, trap for trap:
//   - Fuel is charged from Func.blockFuel at block leaders; exhaustion
//     consumes the remainder so FuelUsed reports the full budget, and the
//     host-call precheck consumes nothing when it fails.
//   - Every trap (bounds, division, call depth, unreachable, halt, host
//     errors) is reported at the pc of the source instruction that caused
//     it. The operand stack cannot underflow or overflow: linking typed it.
//   - Stores and memory growth go through the dirty-region tracking
//     (noteWrite / grow), so ResetFast isolation holds for pooled instances.
//
// Within a basic block the symbolic translator (translate.go) collapses
// stack traffic entirely: constant pushes and local reads become operand
// descriptors consumed in place, ALU results flow straight into locals,
// and compare-and-branch pairs fuse into single closures. A closure that
// stands in for several source instructions reports the pc of the
// component that trapped.

import (
	"fmt"
	"sync/atomic"

	"lambdastore/internal/telemetry"
)

// Compilation counters, process-global like the fault counters because a
// Module is compiled once whoever links it: modules translated to threaded
// code, and total nanoseconds spent doing so.
var (
	statCompiledModules atomic.Uint64
	statCompileNs       atomic.Int64
)

// RegisterMetrics publishes the compilation counters in reg as sampled
// gauges. Whoever instantiates modules on a node calls it with the node's
// registry.
func RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("vm.compiled_modules", func() int64 { return int64(statCompiledModules.Load()) })
	reg.GaugeFunc("vm.compile_ns", statCompileNs.Load)
}

// thDone is the sentinel "ip" a closure returns to leave the function:
// a return when thState.trap is nil, a trap otherwise.
const thDone = -1

// thOp executes one (possibly fused) instruction and returns the next ip.
type thOp func(m *thState) int

// thFunc is one compiled function.
type thFunc struct {
	name      string
	numParams int
	numLocals int // params + declared locals
	nret      int // values every return leaves for the caller
	need      int // frame registers: numLocals + static max stack depth
	ops       []thOp
	// bfuel mirrors Func.blockFuel: the fuel charge owed when execution
	// lands on a block leader, zero elsewhere. The trampoline charges it so
	// individual closures never carry metering code.
	bfuel []int64
}

// thModule is the compiled form of a Module, shared (immutably) by all
// its instances.
type thModule struct {
	funcs []*thFunc
}

// thState is the per-instance machine state threaded through the closures.
// Registers live in Instance.regFile — closures index it through m.inst so
// growth during nested calls is never observed through a stale slice.
type thState struct {
	inst *Instance
	// fp is the current frame's base register. Frame layout: params,
	// declared locals, then one register per operand-stack slot.
	fp int
	// depth is the live frame count, bounded by maxCallDepth; zero while
	// no call is running.
	depth   int
	metered bool
	trap    error
	hargs   []int64 // reusable host-call argument scratch
}

// failAt records a trap annotated with its location.
func (m *thState) failAt(name string, pc int, err error) int {
	m.trap = fmt.Errorf("%w (in %s at pc %d)", err, name, pc)
	return thDone
}

// run drives the threaded loop for one frame. The metered loop charges
// block fuel from bfuel before dispatching a leader; exhaustion consumes
// the remainder so FuelUsed reports the full budget. Control only ever
// lands on block leaders or pcs inside a block whose bfuel is zero, so the
// per-dispatch check reproduces per-block accounting exactly.
func (tf *thFunc) run(m *thState) {
	ops := tf.ops
	if !m.metered {
		for ip := 0; ip >= 0; {
			ip = ops[ip](m)
		}
		return
	}
	bfuel := tf.bfuel[:len(ops)] // one bounds check covers both arrays
	inst := m.inst
	for ip := 0; ip >= 0; {
		if bf := bfuel[ip]; bf != 0 {
			if inst.fuel < bf {
				inst.used += inst.fuel
				inst.fuel = 0
				m.failAt(tf.name, ip, ErrOutOfFuel)
				return
			}
			inst.fuel -= bf
			inst.used += bf
		}
		ip = ops[ip](m)
	}
}

// growRegs extends the register file, preserving live frames.
func (inst *Instance) growRegs(need int) {
	if c := 2 * len(inst.regFile); need < c {
		need = c
	}
	grown := make([]int64, need)
	copy(grown, inst.regFile)
	inst.regFile = grown
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

// CallIndex runs function idx. See Call. An instance runs one call tree at
// a time: a host function calling back into the instance that called it is
// refused.
func (inst *Instance) CallIndex(idx int, args ...int64) (int64, error) {
	tf := inst.thmod.funcs[idx]
	if len(args) != tf.numParams {
		return 0, fmt.Errorf("vm: %q takes %d args, got %d", tf.name, tf.numParams, len(args))
	}
	m := &inst.tstate
	if m.depth != 0 {
		return 0, fmt.Errorf("vm: %q called while the instance is running", tf.name)
	}
	m.inst = inst
	m.fp = 0
	m.depth = 1
	m.metered = inst.fuel > 0
	m.trap = nil
	if m.hargs == nil {
		m.hargs = make([]int64, 0, 8)
	}
	if tf.need > len(inst.regFile) {
		inst.growRegs(tf.need)
	}
	rf := inst.regFile
	copy(rf, args)
	for i := tf.numParams; i < tf.numLocals; i++ {
		rf[i] = 0
	}
	tf.run(m)
	m.depth = 0
	if m.trap != nil {
		return 0, m.trap
	}
	if tf.nret > 0 {
		return inst.regFile[tf.numLocals+tf.nret-1], nil
	}
	return 0, nil
}

// compileModule types and translates a validated module against the host
// arities sigs.
func compileModule(m *Module, sigs []hostSig) (*thModule, error) {
	irs, err := analyzeModule(m, sigs)
	if err != nil {
		return nil, err
	}
	tm := &thModule{funcs: make([]*thFunc, len(m.Funcs))}
	for i := range m.Funcs {
		f := &m.Funcs[i]
		nl := f.NumParams + f.NumLocals
		bf := make([]int64, len(f.code))
		for pc, v := range f.blockFuel {
			bf[pc] = int64(v)
		}
		tm.funcs[i] = &thFunc{
			name:      f.Name,
			numParams: f.NumParams,
			numLocals: nl,
			nret:      irs[i].nret,
			need:      nl + irs[i].maxDepth,
			ops:       make([]thOp, len(f.code)),
			bfuel:     bf,
		}
	}
	for i := range m.Funcs {
		emitFuncSym(m, i, irs[i], tm, sigs)
	}
	return tm, nil
}
