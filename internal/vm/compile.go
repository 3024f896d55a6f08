package vm

// The ahead-of-time compilation tier: validated bytecode is translated
// once per module into token-threaded code — per-function arrays of Go
// closures over the register form computed in ir.go — and every instance
// of the module executes the closures instead of the switch interpreter.
//
// The tier is behaviorally identical to the interpreter by construction:
//   - Fuel is charged from the same blockFuel array at the same block
//     leaders, with the same exhaustion semantics (the remainder is
//     consumed so FuelUsed reports the full budget) and the same
//     non-consuming host-call precheck, so FuelUsed matches to the unit.
//   - Every trap (bounds, division, stack limits, unreachable, halt, host
//     errors) fires at the same pc with the same wrapped error. Stack
//     underflow is decided statically (a pc whose depth is too shallow
//     compiles to a trap closure); overflow remains a runtime check
//     against the frame's precomputed headroom.
//   - Stores and memory growth go through the same dirty-region tracking
//     (noteWrite / grow), so ResetFast isolation is preserved for pooled
//     instances running compiled code.
//
// Within a basic block the symbolic translator (translate.go) collapses
// stack traffic entirely: constant pushes and local reads become operand
// descriptors consumed in place, ALU results flow straight into locals,
// and compare-and-branch pairs fuse into single closures. A closure that
// stands in for several source instructions reports the pc of the
// component that would have trapped. A module with a function the
// translator declines stays on the interpreter as a whole.

import (
	"fmt"
	"sync/atomic"

	"lambdastore/internal/telemetry"
)

// Tier selects the execution engine for an instance.
type Tier uint8

const (
	// TierThreaded runs compiled token-threaded code, falling back to the
	// interpreter for modules the compiler rejects. The default.
	TierThreaded Tier = iota
	// TierInterp forces the switch interpreter (the differential suites'
	// reference engine).
	TierInterp
)

// Compilation counters, process-global like the fault counters because a
// Module is compiled once whoever instantiates it: modules translated to
// threaded code; modules the compiler rejected plus instantiations that fell
// back because the host-function arities differed from the ones the module
// was compiled against; total nanoseconds spent compiling.
var (
	statCompiledModules atomic.Uint64
	statInterpFallbacks atomic.Uint64
	statCompileNs       atomic.Int64
)

// RegisterMetrics publishes the compilation counters in reg as sampled
// gauges, so a production fallback to the interpreter is visible, not
// silent. Whoever instantiates modules on a node calls it with the node's
// registry.
func RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("vm.compiled_modules", func() int64 { return int64(statCompiledModules.Load()) })
	reg.GaugeFunc("vm.interp_fallbacks", func() int64 { return int64(statInterpFallbacks.Load()) })
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
	// height is the interpreter-equivalent total value-stack height at
	// frame entry (operand slots only — locals never counted, exactly as
	// the interpreter keeps locals off the value stack). Push sites
	// compare it against precomputed headroom to reproduce the
	// maxValueStack trap.
	height int
	// depth is the live frame count, bounded by maxCallDepth.
	depth   int
	metered bool
	active  bool // a threaded call is running (reentry falls back to interp)
	trap    error
	hargs   []int64 // reusable host-call argument scratch
}

// failAt records the trap exactly as the interpreter's trapf would.
func (m *thState) failAt(name string, pc int, err error) int {
	m.trap = fmt.Errorf("%w (in %s at pc %d)", err, name, pc)
	return thDone
}

// run drives the threaded loop for one frame. The metered loop charges
// block fuel from bfuel before dispatching a leader, with the same
// exhaustion semantics as the interpreter (the remainder is consumed so
// FuelUsed reports the full budget). Control only ever lands on block
// leaders or pcs inside a block whose bfuel is zero, so the per-dispatch
// check reproduces per-block accounting exactly.
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

// callThreaded runs function idx on the compiled tier. Arguments are
// already length-checked by CallIndex.
func (inst *Instance) callThreaded(idx int, args []int64) (int64, error) {
	tf := inst.thmod.funcs[idx]
	m := &inst.tstate
	m.inst = inst
	m.active = true
	m.fp = 0
	m.height = 0
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
	m.active = false
	if m.trap != nil {
		return 0, m.trap
	}
	if tf.nret > 0 {
		return inst.regFile[tf.numLocals+tf.nret-1], nil
	}
	return 0, nil
}

// compileModule translates a validated module. ok=false means the module
// stays on the interpreter.
func compileModule(m *Module, sigs []hostSig) (*thModule, bool) {
	irs, ok := analyzeModule(m, sigs)
	if !ok {
		return nil, false
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
		if !emitFuncSym(m, i, irs[i], tm, sigs) {
			return nil, false
		}
	}
	return tm, true
}
