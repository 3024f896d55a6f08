package vm

// The reference engine: a switch interpreter over the stack bytecode, kept
// only for the differential suites (diff_test.go, FuzzLinkedModuleRuns) to
// hold the compiled engine to — results, trap strings and pcs, FuelUsed,
// memory images and host-call order. Being a _test.go file, no product path
// can reach it. It runs linked modules only, so it pops without checking;
// what it does check, at every dispatch, is the typing itself.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// frame is one activation record.
type frame struct {
	fn     *Func
	ir     *funcIR
	pc     int
	locals []int64
	base   int // value-stack height at entry
}

// trapf annotates a trap with its location.
func trapf(f *frame, pc int, err error) error {
	return fmt.Errorf("%w (in %s at pc %d)", err, f.fn.Name, pc)
}

// reference is the reference engine over one instance, with the typing of
// the instance's module that every run is checked against.
type reference struct {
	inst *Instance
	irs  []*funcIR
}

func newReference(inst *Instance) *reference {
	irs, err := analyzeModule(inst.module, inst.module.lk.sigs)
	if err != nil {
		panic(err) // NewInstance linked the module against these arities
	}
	return &reference{inst: inst, irs: irs}
}

// CallIndex runs function idx and returns what Instance.CallIndex would:
// the value on top of the stack, if any.
func (r *reference) CallIndex(idx int, args ...int64) (int64, error) {
	fn := &r.inst.module.Funcs[idx]
	locals := make([]int64, fn.NumParams+fn.NumLocals)
	copy(locals, args)
	stack, err := r.inst.interpret(r.irs, frame{fn: fn, ir: r.irs[idx], locals: locals})
	if err != nil || len(stack) == 0 {
		return 0, err
	}
	return stack[len(stack)-1], nil
}

// interpret is the interpreter loop; it returns the value stack the entry
// frame leaves. It manages an explicit frame stack so guest recursion depth
// is bounded by maxCallDepth, not the Go stack.
func (inst *Instance) interpret(irs []*funcIR, entry frame) ([]int64, error) {
	frames := make([]frame, 1, 8)
	frames[0] = entry
	metered := inst.fuel > 0
	var stack []int64

	for {
		f := &frames[len(frames)-1]
		code := f.fn.code
		bfuel := f.fn.blockFuel
		pc := f.pc

	dispatch:
		for {
			// The claim linking makes, checked where it is relied on: this
			// pc is reached at the one depth the typing gave it, so nothing
			// below pops past the frame base.
			if d := len(stack) - f.base; d != int(f.ir.depth[pc]) {
				panic(fmt.Sprintf("%s pc %d: stack depth %d at run time, typed %d", f.fn.Name, pc, d, f.ir.depth[pc]))
			}
			// Fuel is charged per basic block: block leaders carry the whole
			// straight-line cost, every other pc charges nothing. A resume
			// after call/ret lands mid-block on code already paid for at the
			// leader. Exhaustion consumes the remainder so FuelUsed reports
			// the full budget.
			if metered {
				if bf := int64(bfuel[pc]); bf != 0 {
					if inst.fuel < bf {
						inst.used += inst.fuel
						inst.fuel = 0
						return nil, trapf(f, pc, ErrOutOfFuel)
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
				return nil, trapf(f, pc, ErrUnreachable)

			case opPush:
				stack = append(stack, in.arg)
				pc++
			case opPop:
				stack = stack[:len(stack)-1]
				pc++
			case opDup:
				n := len(stack)
				stack = append(stack, stack[n-1])
				pc++
			case opSwap:
				n := len(stack)
				stack[n-1], stack[n-2] = stack[n-2], stack[n-1]
				pc++

			case opLocalGet:
				stack = append(stack, f.locals[in.arg])
				pc++
			case opLocalSet:
				n := len(stack)
				f.locals[in.arg] = stack[n-1]
				stack = stack[:n-1]
				pc++
			case opLocalTee:
				n := len(stack)
				f.locals[in.arg] = stack[n-1]
				pc++

			case opJmp:
				pc = int(in.arg)
			case opJz, opJnz:
				n := len(stack)
				v := stack[n-1]
				stack = stack[:n-1]
				if (v == 0) == (in.op == opJz) {
					pc = int(in.arg)
				} else {
					pc++
				}

			case opCall:
				if len(frames) >= maxCallDepth {
					return nil, trapf(f, pc, ErrStackOverflow)
				}
				callee := &inst.module.Funcs[in.arg]
				n := len(stack)
				locals := make([]int64, callee.NumParams+callee.NumLocals)
				copy(locals, stack[n-callee.NumParams:])
				stack = stack[:n-callee.NumParams]
				f.pc = pc + 1
				frames = append(frames, frame{fn: callee, ir: irs[in.arg], locals: locals, base: len(stack)})
				break dispatch

			case opRet:
				// The callee's results (anything above its base) stay on the
				// stack for the caller.
				frames = frames[:len(frames)-1]
				if len(frames) == 0 {
					return stack, nil
				}
				break dispatch

			case opHalt:
				return nil, trapf(f, pc, ErrHalted)

			case opAdd, opSub, opMul, opDivS, opRemS, opAnd, opOr, opXor, opShl, opShrS, opShrU,
				opEq, opNe, opLtS, opGtS, opLeS, opGeS:
				n := len(stack)
				b := stack[n-1]
				a := stack[n-2]
				stack = stack[:n-1]
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
						return nil, trapf(f, pc, ErrDivByZero)
					}
					r = a / b
				case opRemS:
					if b == 0 {
						return nil, trapf(f, pc, ErrDivByZero)
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
				stack[len(stack)-1] = r
				pc++

			case opEqz:
				n := len(stack)
				stack[n-1] = b2i(stack[n-1] == 0)
				pc++

			case opLoad8U:
				n := len(stack)
				addr := stack[n-1]
				if addr < 0 || addr >= int64(len(inst.mem)) {
					return nil, trapf(f, pc, ErrMemOutOfBounds)
				}
				stack[n-1] = int64(inst.mem[addr])
				pc++
			case opLoad64:
				n := len(stack)
				addr := stack[n-1]
				if addr < 0 || addr+8 > int64(len(inst.mem)) {
					return nil, trapf(f, pc, ErrMemOutOfBounds)
				}
				stack[n-1] = int64(binary.LittleEndian.Uint64(inst.mem[addr:]))
				pc++
			case opStore8:
				n := len(stack)
				v := stack[n-1]
				addr := stack[n-2]
				stack = stack[:n-2]
				if addr < 0 || addr >= int64(len(inst.mem)) {
					return nil, trapf(f, pc, ErrMemOutOfBounds)
				}
				inst.mem[addr] = byte(v)
				inst.noteWrite(addr + 1)
				pc++
			case opStore64:
				n := len(stack)
				v := stack[n-1]
				addr := stack[n-2]
				stack = stack[:n-2]
				if addr < 0 || addr+8 > int64(len(inst.mem)) {
					return nil, trapf(f, pc, ErrMemOutOfBounds)
				}
				binary.LittleEndian.PutUint64(inst.mem[addr:], uint64(v))
				inst.noteWrite(addr + 8)
				pc++

			case opMemSize:
				stack = append(stack, int64(len(inst.mem)))
				pc++
			case opMemGrow:
				n := len(stack)
				delta := stack[n-1]
				old := int64(len(inst.mem))
				if err := inst.grow(delta); err != nil {
					return nil, trapf(f, pc, err)
				}
				stack[n-1] = old
				pc++

			case opHostCall:
				hf := inst.hosts[in.arg]
				n := len(stack)
				if metered {
					if inst.fuel < hf.Cost {
						return nil, trapf(f, pc, ErrOutOfFuel)
					}
					inst.fuel -= hf.Cost
					inst.used += hf.Cost
				}
				args := make([]int64, hf.NArgs)
				copy(args, stack[n-hf.NArgs:])
				stack = stack[:n-hf.NArgs]
				ret, err := hf.Fn(inst, args)
				if err != nil {
					return nil, trapf(f, pc, &HostError{Err: err})
				}
				if hf.HasRet {
					stack = append(stack, ret)
				}
				pc++

			case opPushPair:
				stack = append(stack, in.arg>>32, in.arg&0xffffffff)
				pc++
			case opUnpackPtr:
				n := len(stack)
				stack[n-1] = int64(uint64(stack[n-1]) >> 32)
				pc++
			case opUnpackLen:
				n := len(stack)
				stack[n-1] &= 0xffffffff
				pc++
			case opAddI:
				n := len(stack)
				stack[n-1] += in.arg
				pc++
			case opLocalAddI:
				f.locals[in.arg>>32] += int64(int32(in.arg & 0xffffffff))
				pc++

			default:
				return nil, trapf(f, pc, fmt.Errorf("vm: unknown opcode %d", in.op))
			}
		}
	}
}
