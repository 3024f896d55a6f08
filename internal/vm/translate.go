package vm

// Symbolic block translation: how the engine emits code. Within a basic
// block the operand stack is tracked symbolically — pushes of constants and
// local reads cost zero dispatches; an ALU instruction compiles to one
// closure that reads its operands directly from locals/constants and writes
// the result to its statically known frame register (or straight into a
// local when a local.set immediately consumes it). Compare-and-branch pairs
// fuse into a single closure, as do bounds-checked loads and stores whose
// operands are register-resident.
//
// What the reference interpreter observes is preserved instruction by
// instruction:
//   - Every trapping operation (loads, stores, division, calls, host
//     calls, memory growth, memcopy) keeps its own closure and its own pc.
//   - Fuel stays per-block: translation never crosses a block leader, and
//     the trampoline in compile.go charges from the same blockFuel values
//     at the same leaders.
//
// The translator is total over what linking typed (ir.go): every reachable
// pc has one depth, every pop has its operands, and Validate admitted only
// known opcodes, so no block is ever declined.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// symKind classifies one symbolic operand-stack entry.
type symKind uint8

const (
	// symCanon: the value already lives in its canonical frame register
	// (numLocals + stack position).
	symCanon symKind = iota
	// symConst: a compile-time constant that has not been materialized.
	symConst
	// symLocal: an un-copied reference to a local's register.
	symLocal
)

type symVal struct {
	kind  symKind
	c     int64 // symConst value
	local int   // symLocal register index
}

// ref is a resolved operand: a constant or a frame-relative register.
type ref struct {
	isConst bool
	c       int64
	reg     int
}

// blockGen translates one basic block.
type blockGen struct {
	f    *Func
	tf   *thFunc
	ir   *funcIR
	tm   *thModule
	sigs []hostSig
	name string
	nl   int

	sym       []symVal
	factories []func(next int) thOp
}

func (g *blockGen) refOf(pos int) ref {
	switch e := g.sym[pos]; e.kind {
	case symConst:
		return ref{isConst: true, c: e.c}
	case symLocal:
		return ref{reg: e.local}
	default:
		return ref{reg: g.nl + pos}
	}
}

// emit appends a closure factory; the block's layout hands each its
// successor ip.
func (g *blockGen) emit(fac func(next int) thOp) {
	g.factories = append(g.factories, fac)
}

// move emits dst = r.
func (g *blockGen) move(dst int, r ref) {
	if r.isConst {
		c := r.c
		g.emit(func(next int) thOp {
			return func(m *thState) int {
				m.inst.regFile[m.fp+dst] = c
				return next
			}
		})
		return
	}
	src := r.reg
	g.emit(func(next int) thOp {
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+dst] = rf[m.fp+src]
			return next
		}
	})
}

// materialize copies one symbolic entry into its canonical register.
func (g *blockGen) materialize(pos int) {
	if g.sym[pos].kind == symCanon {
		return
	}
	g.move(g.nl+pos, g.refOf(pos))
	g.sym[pos] = symVal{kind: symCanon}
}

func (g *blockGen) materializeFrom(pos int) {
	for i := pos; i < len(g.sym); i++ {
		g.materialize(i)
	}
}

// materializeLocalRefs copies every pending reference to local reg below
// limit into its canonical slot — required before the local is
// overwritten by a sink whose operands may still alias it (operand reads
// happen before the write inside a single closure, so only entries that
// outlive the instruction need copying).
func (g *blockGen) materializeLocalRefs(reg, limit int) {
	for i := 0; i < limit; i++ {
		if g.sym[i].kind == symLocal && g.sym[i].local == reg {
			g.materialize(i)
		}
	}
}

// regRef forces a ref into register form, materializing a constant into
// the operand's canonical slot when needed (rare: const addresses etc.).
func (g *blockGen) regRef(pos int) ref {
	if g.sym[pos].kind == symConst {
		g.materialize(pos)
	}
	return g.refOf(pos)
}

// negCmp returns the opposite comparison (for jz-sense branch fusion).
func negCmp(op opcode) opcode {
	switch op {
	case opEq:
		return opNe
	case opNe:
		return opEq
	case opLtS:
		return opGeS
	case opGeS:
		return opLtS
	case opGtS:
		return opLeS
	default: // opLeS
		return opGtS
	}
}

// foldBin constant-folds a side-effect-free binary op. ok=false for ops
// that can trap (div/rem) or are unknown.
func foldBin(op opcode, a, b int64) (int64, bool) {
	switch op {
	case opAdd:
		return a + b, true
	case opSub:
		return a - b, true
	case opMul:
		return a * b, true
	case opAnd:
		return a & b, true
	case opOr:
		return a | b, true
	case opXor:
		return a ^ b, true
	case opShl:
		return a << (uint64(b) & 63), true
	case opShrS:
		return a >> (uint64(b) & 63), true
	case opShrU:
		return int64(uint64(a) >> (uint64(b) & 63)), true
	case opEq:
		return b2i(a == b), true
	case opNe:
		return b2i(a != b), true
	case opLtS:
		return b2i(a < b), true
	case opGtS:
		return b2i(a > b), true
	case opLeS:
		return b2i(a <= b), true
	case opGeS:
		return b2i(a >= b), true
	}
	return 0, false
}

// commutes reports whether the op tolerates swapped operands.
func commutes(op opcode) bool {
	switch op {
	case opAdd, opMul, opAnd, opOr, opXor, opEq, opNe:
		return true
	}
	return false
}

// swapCmp rewrites `const OP reg` as `reg OP' const`.
func swapCmp(op opcode) (opcode, bool) {
	switch op {
	case opLtS:
		return opGtS, true
	case opGtS:
		return opLtS, true
	case opLeS:
		return opGeS, true
	case opGeS:
		return opLeS, true
	}
	return op, false
}

// aluRR emits OP with both operands in registers.
func aluRR(op opcode, a, b, dst int, name string, at int) func(int) thOp {
	switch op {
	case opAdd:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] + rf[m.fp+b]
				return next
			}
		}
	case opSub:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] - rf[m.fp+b]
				return next
			}
		}
	case opMul:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] * rf[m.fp+b]
				return next
			}
		}
	case opDivS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				x, y := rf[m.fp+a], rf[m.fp+b]
				if y == 0 || (x == math.MinInt64 && y == -1) {
					return m.failAt(name, at, ErrDivByZero)
				}
				rf[m.fp+dst] = x / y
				return next
			}
		}
	case opRemS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				y := rf[m.fp+b]
				if y == 0 {
					return m.failAt(name, at, ErrDivByZero)
				}
				rf[m.fp+dst] = rf[m.fp+a] % y
				return next
			}
		}
	case opAnd:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] & rf[m.fp+b]
				return next
			}
		}
	case opOr:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] | rf[m.fp+b]
				return next
			}
		}
	case opXor:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] ^ rf[m.fp+b]
				return next
			}
		}
	case opShl:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] << (uint64(rf[m.fp+b]) & 63)
				return next
			}
		}
	case opShrS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] >> (uint64(rf[m.fp+b]) & 63)
				return next
			}
		}
	case opShrU:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = int64(uint64(rf[m.fp+a]) >> (uint64(rf[m.fp+b]) & 63))
				return next
			}
		}
	case opEq:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] == rf[m.fp+b])
				return next
			}
		}
	case opNe:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] != rf[m.fp+b])
				return next
			}
		}
	case opLtS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] < rf[m.fp+b])
				return next
			}
		}
	case opGtS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] > rf[m.fp+b])
				return next
			}
		}
	case opLeS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] <= rf[m.fp+b])
				return next
			}
		}
	default: // opGeS
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] >= rf[m.fp+b])
				return next
			}
		}
	}
}

// aluRC emits OP with the right operand a compile-time constant.
func aluRC(op opcode, a int, c int64, dst int, name string, at int) func(int) thOp {
	switch op {
	case opAdd:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] + c
				return next
			}
		}
	case opSub:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] - c
				return next
			}
		}
	case opMul:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] * c
				return next
			}
		}
	case opDivS:
		if c == 0 {
			return func(next int) thOp {
				return func(m *thState) int {
					return m.failAt(name, at, ErrDivByZero)
				}
			}
		}
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				x := rf[m.fp+a]
				if x == math.MinInt64 && c == -1 {
					return m.failAt(name, at, ErrDivByZero)
				}
				rf[m.fp+dst] = x / c
				return next
			}
		}
	case opRemS:
		if c == 0 {
			return func(next int) thOp {
				return func(m *thState) int {
					return m.failAt(name, at, ErrDivByZero)
				}
			}
		}
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] % c
				return next
			}
		}
	case opAnd:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] & c
				return next
			}
		}
	case opOr:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] | c
				return next
			}
		}
	case opXor:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] ^ c
				return next
			}
		}
	case opShl:
		sh := uint64(c) & 63
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] << sh
				return next
			}
		}
	case opShrS:
		sh := uint64(c) & 63
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = rf[m.fp+a] >> sh
				return next
			}
		}
	case opShrU:
		sh := uint64(c) & 63
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = int64(uint64(rf[m.fp+a]) >> sh)
				return next
			}
		}
	case opEq:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] == c)
				return next
			}
		}
	case opNe:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] != c)
				return next
			}
		}
	case opLtS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] < c)
				return next
			}
		}
	case opGtS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] > c)
				return next
			}
		}
	case opLeS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] <= c)
				return next
			}
		}
	default: // opGeS
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				rf[m.fp+dst] = b2i(rf[m.fp+a] >= c)
				return next
			}
		}
	}
}

// cmpBranchRR emits a fused compare-and-branch in jnz sense: jump to
// taken when `a OP b` holds, fall through to next otherwise.
func cmpBranchRR(op opcode, a, b, taken int) func(int) thOp {
	switch op {
	case opEq:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				if rf[m.fp+a] == rf[m.fp+b] {
					return taken
				}
				return next
			}
		}
	case opNe:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				if rf[m.fp+a] != rf[m.fp+b] {
					return taken
				}
				return next
			}
		}
	case opLtS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				if rf[m.fp+a] < rf[m.fp+b] {
					return taken
				}
				return next
			}
		}
	case opGtS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				if rf[m.fp+a] > rf[m.fp+b] {
					return taken
				}
				return next
			}
		}
	case opLeS:
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				if rf[m.fp+a] <= rf[m.fp+b] {
					return taken
				}
				return next
			}
		}
	default: // opGeS
		return func(next int) thOp {
			return func(m *thState) int {
				rf := m.inst.regFile
				if rf[m.fp+a] >= rf[m.fp+b] {
					return taken
				}
				return next
			}
		}
	}
}

// cmpBranchRC is cmpBranchRR with a constant right operand.
func cmpBranchRC(op opcode, a int, c int64, taken int) func(int) thOp {
	switch op {
	case opEq:
		return func(next int) thOp {
			return func(m *thState) int {
				if m.inst.regFile[m.fp+a] == c {
					return taken
				}
				return next
			}
		}
	case opNe:
		return func(next int) thOp {
			return func(m *thState) int {
				if m.inst.regFile[m.fp+a] != c {
					return taken
				}
				return next
			}
		}
	case opLtS:
		return func(next int) thOp {
			return func(m *thState) int {
				if m.inst.regFile[m.fp+a] < c {
					return taken
				}
				return next
			}
		}
	case opGtS:
		return func(next int) thOp {
			return func(m *thState) int {
				if m.inst.regFile[m.fp+a] > c {
					return taken
				}
				return next
			}
		}
	case opLeS:
		return func(next int) thOp {
			return func(m *thState) int {
				if m.inst.regFile[m.fp+a] <= c {
					return taken
				}
				return next
			}
		}
	default: // opGeS
		return func(next int) thOp {
			return func(m *thState) int {
				if m.inst.regFile[m.fp+a] >= c {
					return taken
				}
				return next
			}
		}
	}
}

// emitBinOp lowers a binary ALU instruction at pc with operand refs a, b
// and destination register dst (a canonical stack slot or, when a
// local.set was folded in, the local itself).
func (g *blockGen) emitBinOp(op opcode, a, b ref, dst int, at int) {
	name := g.name
	switch {
	case !a.isConst && !b.isConst:
		g.emit(aluRR(op, a.reg, b.reg, dst, name, at))
	case !a.isConst && b.isConst:
		g.emit(aluRC(op, a.reg, b.c, dst, name, at))
	case a.isConst && !b.isConst && commutes(op):
		g.emit(aluRC(op, b.reg, a.c, dst, name, at))
	default:
		// const OP reg for a non-commutative op: compares flip; the rest
		// were materialized by the caller, so this arm only sees reg on
		// the left.
		if sw, ok := swapCmp(op); ok && a.isConst && !b.isConst {
			g.emit(aluRC(sw, b.reg, a.c, dst, name, at))
			return
		}
		g.emit(aluRR(op, a.reg, b.reg, dst, name, at))
	}
}

// translateBlock translates code[start:end) (one basic block) into tf.ops.
func (g *blockGen) translateBlock(start, end int) {
	f, tf, ir := g.f, g.tf, g.ir
	nl := g.nl
	name := g.name
	g.factories = g.factories[:0]

	if ir.depth[start] < 0 {
		// The whole block is statically unreachable; guard defensively.
		for pc := start; pc < end; pc++ {
			at := pc
			tf.ops[pc] = func(m *thState) int { return m.failAt(name, at, ErrUnreachable) }
		}
		return
	}
	d0 := int(ir.depth[start])
	g.sym = g.sym[:0]
	for i := 0; i < d0; i++ {
		g.sym = append(g.sym, symVal{kind: symCanon})
	}

	exit := thDone
	terminated := false
	for pc := start; pc < end && !terminated; pc++ {
		in := f.code[pc]
		at := pc
		if ir.depth[pc] < 0 {
			// Statically unreachable tail (after a terminator in the block).
			break
		}
		d := int(ir.depth[pc])
		if len(g.sym) != d {
			panic(fmt.Sprintf("vm: %s pc %d: translating at depth %d, typed %d", name, pc, len(g.sym), d))
		}

		switch in.op {
		case opNop:
			// No effect in register form.
		case opPop:
			g.sym = g.sym[:d-1]
		case opPush:
			g.sym = append(g.sym, symVal{kind: symConst, c: in.arg})
		case opPushPair:
			g.sym = append(g.sym, symVal{kind: symConst, c: in.arg >> 32},
				symVal{kind: symConst, c: in.arg & 0xffffffff})
		case opLocalGet:
			g.sym = append(g.sym, symVal{kind: symLocal, local: int(in.arg)})
		case opDup:
			if top := g.sym[d-1]; top.kind != symCanon {
				g.sym = append(g.sym, top)
				break
			}
			g.move(nl+d, ref{reg: nl + d - 1})
			g.sym = append(g.sym, symVal{kind: symCanon})
		case opSwap:
			a, b := g.sym[d-2], g.sym[d-1]
			if a.kind != symCanon && b.kind != symCanon {
				g.sym[d-2], g.sym[d-1] = b, a
				break
			}
			g.materializeFrom(0)
			x := nl + d - 2
			g.emit(func(next int) thOp {
				return func(m *thState) int {
					rf := m.inst.regFile
					rf[m.fp+x], rf[m.fp+x+1] = rf[m.fp+x+1], rf[m.fp+x]
					return next
				}
			})

		case opLocalSet:
			y := int(in.arg)
			v := g.refOf(d - 1)
			g.sym = g.sym[:d-1]
			g.materializeLocalRefs(y, len(g.sym))
			if v.isConst || v.reg != y { // x -> x is a no-op
				g.move(y, v)
			}
		case opLocalTee:
			y := int(in.arg)
			v := g.refOf(d - 1)
			if !v.isConst && v.reg == y {
				break // the local already holds this value
			}
			// Materialize other references to y; the top entry keeps its
			// descriptor (its value is unchanged by the tee).
			g.materializeLocalRefs(y, d-1)
			g.move(y, v)
		case opLocalAddI:
			y := int(in.arg >> 32)
			k := int64(int32(in.arg & 0xffffffff))
			g.materializeLocalRefs(y, len(g.sym))
			g.emit(aluRC(opAdd, y, k, y, name, at))

		case opAdd, opSub, opMul, opDivS, opRemS, opAnd, opOr, opXor,
			opShl, opShrS, opShrU, opEq, opNe, opLtS, opGtS, opLeS, opGeS:
			a, b := g.refOf(d-2), g.refOf(d-1)
			// Constant folding (never for trapping div/rem).
			if a.isConst && b.isConst {
				if v, ok := foldBin(in.op, a.c, b.c); ok {
					g.sym = g.sym[:d-2]
					g.sym = append(g.sym, symVal{kind: symConst, c: v})
					break
				}
				a = g.regRef(d - 2)
			}
			if a.isConst && !commutes(in.op) {
				if _, ok := swapCmp(in.op); !ok {
					a = g.regRef(d - 2)
				}
			}
			// Compare-and-branch fusion: the branch ends this block. Only
			// the entries below the operands need canonical homes.
			if pc+2 == end && isCmpOp(in.op) {
				if br := f.code[pc+1]; br.op == opJz || br.op == opJnz {
					for i := 0; i < d-2; i++ {
						g.materialize(i)
					}
					cop := in.op
					if br.op == opJz {
						cop = negCmp(cop)
					}
					target := int(br.arg)
					g.sym = g.sym[:d-2]
					switch {
					case !a.isConst && !b.isConst:
						g.emit(cmpBranchRR(cop, a.reg, b.reg, target))
					case !a.isConst && b.isConst:
						g.emit(cmpBranchRC(cop, a.reg, b.c, target))
					default: // const OP reg: swap operands and the sense
						sw, _ := swapCmp(cop)
						g.emit(cmpBranchRC(sw, b.reg, a.c, target))
					}
					exit = end
					terminated = true
					break
				}
			}
			dst := nl + d - 2
			skip := 0
			// Fold a local.set that immediately consumes the result: the
			// ALU closure writes the local directly. Entries below the
			// operands that alias the local must be copied out first; the
			// operands themselves may alias it (reads precede the write
			// inside the closure).
			if pc+1 < end && f.code[pc+1].op == opLocalSet {
				y := int(f.code[pc+1].arg)
				g.materializeLocalRefs(y, d-2)
				dst = y
				skip = 1
			}
			g.sym = g.sym[:d-2]
			g.emitBinOp(in.op, a, b, dst, at)
			if skip == 0 {
				g.sym = append(g.sym, symVal{kind: symCanon})
			}
			pc += skip

		case opEqz:
			a := g.refOf(d - 1)
			if a.isConst {
				g.sym = g.sym[:d-1]
				g.sym = append(g.sym, symVal{kind: symConst, c: b2i(a.c == 0)})
				break
			}
			// eqz-and-branch fusion: eqz;jnz == jump-if-zero, eqz;jz ==
			// jump-if-nonzero.
			if pc+2 == end {
				if br := f.code[pc+1]; br.op == opJz || br.op == opJnz {
					for i := 0; i < d-1; i++ {
						g.materialize(i)
					}
					target := int(br.arg)
					g.sym = g.sym[:d-1]
					cop := opEq // jnz sense: taken when value == 0
					if br.op == opJz {
						cop = opNe
					}
					g.emit(cmpBranchRC(cop, a.reg, 0, target))
					exit = end
					terminated = true
					break
				}
			}
			dst := nl + d - 1
			skip := 0
			if pc+1 < end && f.code[pc+1].op == opLocalSet {
				y := int(f.code[pc+1].arg)
				g.materializeLocalRefs(y, d-1)
				dst = y
				skip = 1
			}
			g.sym = g.sym[:d-1]
			g.emit(aluRC(opEq, a.reg, 0, dst, name, at))
			if skip == 0 {
				g.sym = append(g.sym, symVal{kind: symCanon})
			}
			pc += skip
		case opAddI:
			a := g.refOf(d - 1)
			k := in.arg
			if a.isConst {
				g.sym = g.sym[:d-1]
				g.sym = append(g.sym, symVal{kind: symConst, c: a.c + k})
				break
			}
			dst := nl + d - 1
			skip := 0
			if pc+1 < end && f.code[pc+1].op == opLocalSet {
				y := int(f.code[pc+1].arg)
				g.materializeLocalRefs(y, d-1)
				dst = y
				skip = 1
			}
			g.sym = g.sym[:d-1]
			g.emit(aluRC(opAdd, a.reg, k, dst, name, at))
			if skip == 0 {
				g.sym = append(g.sym, symVal{kind: symCanon})
			}
			pc += skip
		case opUnpackPtr:
			a := g.refOf(d - 1)
			if a.isConst {
				g.sym[d-1] = symVal{kind: symConst, c: int64(uint64(a.c) >> 32)}
				break
			}
			src, dst := a.reg, nl+d-1
			g.emit(func(next int) thOp {
				return func(m *thState) int {
					rf := m.inst.regFile
					rf[m.fp+dst] = int64(uint64(rf[m.fp+src]) >> 32)
					return next
				}
			})
			g.sym[d-1] = symVal{kind: symCanon}
		case opUnpackLen:
			a := g.refOf(d - 1)
			if a.isConst {
				g.sym[d-1] = symVal{kind: symConst, c: a.c & 0xffffffff}
				break
			}
			src, dst := a.reg, nl+d-1
			g.emit(func(next int) thOp {
				return func(m *thState) int {
					rf := m.inst.regFile
					rf[m.fp+dst] = rf[m.fp+src] & 0xffffffff
					return next
				}
			})
			g.sym[d-1] = symVal{kind: symCanon}

		case opLoad8U, opLoad64:
			a := g.regRef(d - 1)
			wide := in.op == opLoad64
			dst := nl + d - 1
			skip := 0
			if pc+1 < end && f.code[pc+1].op == opLocalSet {
				y := int(f.code[pc+1].arg)
				g.materializeLocalRefs(y, d-1)
				dst = y
				skip = 1
			}
			src := a.reg
			if wide {
				g.emit(func(next int) thOp {
					return func(m *thState) int {
						inst := m.inst
						rf := inst.regFile
						addr := rf[m.fp+src]
						if (addr < 0 || addr > int64(len(inst.mem))-8) && !inst.materialize(addr, 8) {
							return m.failAt(name, at, ErrMemOutOfBounds)
						}
						rf[m.fp+dst] = int64(binary.LittleEndian.Uint64(inst.mem[addr:]))
						return next
					}
				})
			} else {
				g.emit(func(next int) thOp {
					return func(m *thState) int {
						inst := m.inst
						rf := inst.regFile
						addr := rf[m.fp+src]
						if (addr < 0 || addr >= int64(len(inst.mem))) && !inst.materialize(addr, 1) {
							return m.failAt(name, at, ErrMemOutOfBounds)
						}
						rf[m.fp+dst] = int64(inst.mem[addr])
						return next
					}
				})
			}
			g.sym = g.sym[:d-1]
			if skip == 0 {
				g.sym = append(g.sym, symVal{kind: symCanon})
			}
			pc += skip
		case opStore8, opStore64:
			addr := g.regRef(d - 2)
			val := g.refOf(d - 1)
			wide := in.op == opStore64
			g.sym = g.sym[:d-2]
			aReg := addr.reg
			switch {
			case !val.isConst && wide:
				vReg := val.reg
				g.emit(func(next int) thOp {
					return func(m *thState) int {
						inst := m.inst
						rf := inst.regFile
						a := rf[m.fp+aReg]
						if (a < 0 || a > int64(len(inst.mem))-8) && !inst.materialize(a, 8) {
							return m.failAt(name, at, ErrMemOutOfBounds)
						}
						binary.LittleEndian.PutUint64(inst.mem[a:], uint64(rf[m.fp+vReg]))
						inst.noteWrite(a + 8)
						return next
					}
				})
			case val.isConst && wide:
				c := uint64(val.c)
				g.emit(func(next int) thOp {
					return func(m *thState) int {
						inst := m.inst
						a := inst.regFile[m.fp+aReg]
						if (a < 0 || a > int64(len(inst.mem))-8) && !inst.materialize(a, 8) {
							return m.failAt(name, at, ErrMemOutOfBounds)
						}
						binary.LittleEndian.PutUint64(inst.mem[a:], c)
						inst.noteWrite(a + 8)
						return next
					}
				})
			case !val.isConst:
				vReg := val.reg
				g.emit(func(next int) thOp {
					return func(m *thState) int {
						inst := m.inst
						rf := inst.regFile
						a := rf[m.fp+aReg]
						if (a < 0 || a >= int64(len(inst.mem))) && !inst.materialize(a, 1) {
							return m.failAt(name, at, ErrMemOutOfBounds)
						}
						inst.mem[a] = byte(rf[m.fp+vReg])
						inst.noteWrite(a + 1)
						return next
					}
				})
			default:
				c := byte(val.c)
				g.emit(func(next int) thOp {
					return func(m *thState) int {
						inst := m.inst
						a := inst.regFile[m.fp+aReg]
						if (a < 0 || a >= int64(len(inst.mem))) && !inst.materialize(a, 1) {
							return m.failAt(name, at, ErrMemOutOfBounds)
						}
						inst.mem[a] = c
						inst.noteWrite(a + 1)
						return next
					}
				})
			}

		case opMemCopy:
			dReg, sReg, nReg := g.regRef(d-3).reg, g.regRef(d-2).reg, g.regRef(d-1).reg
			g.sym = g.sym[:d-3]
			g.emit(func(next int) thOp {
				return func(m *thState) int {
					rf := m.inst.regFile
					if err := m.inst.memCopy(rf[m.fp+dReg], rf[m.fp+sReg], rf[m.fp+nReg]); err != nil {
						return m.failAt(name, at, err)
					}
					return next
				}
			})

		case opMemSize:
			dst := nl + d
			g.emit(func(next int) thOp {
				return func(m *thState) int {
					inst := m.inst
					inst.regFile[m.fp+dst] = inst.size
					return next
				}
			})
			g.sym = append(g.sym, symVal{kind: symCanon})
		case opMemGrow:
			a := g.regRef(d - 1)
			src, dst := a.reg, nl+d-1
			g.emit(func(next int) thOp {
				return func(m *thState) int {
					inst := m.inst
					rf := inst.regFile
					old := inst.size
					if err := inst.grow(rf[m.fp+src]); err != nil {
						return m.failAt(name, at, err)
					}
					rf[m.fp+dst] = old
					return next
				}
			})
			g.sym = g.sym[:d-1]
			g.sym = append(g.sym, symVal{kind: symCanon})

		case opJmp:
			// The jump itself is free: it becomes the previous closure's
			// exit ip (or the block's single landing closure when empty).
			g.materializeFrom(0)
			exit = int(in.arg)
			terminated = true
		case opJz, opJnz:
			for i := 0; i < d-1; i++ {
				g.materialize(i)
			}
			c := g.refOf(d - 1)
			g.sym = g.sym[:d-1]
			target := int(in.arg)
			if c.isConst {
				// Statically decided branch: fold into the exit ip.
				if (c.c == 0) == (in.op == opJz) {
					exit = target
				} else {
					exit = end
				}
				terminated = true
				break
			}
			cop := opNe // jnz sense: taken when != 0
			if in.op == opJz {
				cop = opEq
			}
			g.emit(cmpBranchRC(cop, c.reg, 0, target))
			exit = end
			terminated = true
		case opRet:
			// All nret values must sit in their canonical slots for the
			// caller; the return itself is the previous closure's thDone.
			g.materializeFrom(0)
			exit = thDone
			terminated = true
		case opHalt:
			g.emit(func(int) thOp {
				return func(m *thState) int { return m.failAt(name, at, ErrHalted) }
			})
			terminated = true
		case opUnreachable:
			g.emit(func(int) thOp {
				return func(m *thState) int { return m.failAt(name, at, ErrUnreachable) }
			})
			terminated = true

		case opCall:
			callee := g.tm.funcs[in.arg]
			np := callee.numParams
			g.materializeFrom(d - np)
			cnl := callee.numLocals
			cneed := callee.need
			cret := callee.nret
			frameOff := nl + d - np
			g.emit(func(next int) thOp {
				return func(m *thState) int {
					if m.depth >= maxCallDepth {
						return m.failAt(name, at, ErrStackOverflow)
					}
					inst := m.inst
					cfp := m.fp + frameOff
					if want := cfp + cneed; want > len(inst.regFile) {
						inst.growRegs(want)
					}
					rf := inst.regFile
					for i := cfp + np; i < cfp+cnl; i++ {
						rf[i] = 0
					}
					sfp := m.fp
					m.fp = cfp
					m.depth++
					callee.run(m)
					m.fp = sfp
					m.depth--
					if m.trap != nil {
						return thDone
					}
					if cret > 0 {
						rf = inst.regFile
						copy(rf[cfp:cfp+cret], rf[cfp+cnl:cfp+cnl+cret])
					}
					return next
				}
			})
			g.sym = g.sym[:d-np]
			for i := 0; i < cret; i++ {
				g.sym = append(g.sym, symVal{kind: symCanon})
			}
		case opHostCall:
			hidx := int(in.arg)
			sig := g.sigs[hidx]
			na := sig.nargs
			hasRet := sig.hasRet
			g.materializeFrom(d - na)
			abase := nl + d - na
			g.emit(func(next int) thOp {
				return func(m *thState) int {
					inst := m.inst
					hf := inst.hosts[hidx]
					if inst.fuel < hf.Cost {
						return m.failAt(name, at, ErrOutOfFuel)
					}
					inst.fuel -= hf.Cost
					inst.used += hf.Cost
					m.hargs = append(m.hargs[:0], inst.regFile[m.fp+abase:m.fp+abase+na]...)
					ret, err := hf.Fn(inst, m.hargs)
					if err != nil {
						return m.failAt(name, at, &HostError{Err: err})
					}
					if hasRet {
						inst.regFile[m.fp+abase] = ret
					}
					return next
				}
			})
			g.sym = g.sym[:d-na]
			if hasRet {
				g.sym = append(g.sym, symVal{kind: symCanon})
			}

		}
	}

	if !terminated {
		// Fall through into the next block: successors assume canonical
		// registers.
		g.materializeFrom(0)
		exit = end
	}

	cnt := len(g.factories)
	if cnt == 0 {
		// Every block needs at least one closure to land on (it is a
		// possible branch target and fuel-charge site).
		e := exit
		g.factories = append(g.factories, func(int) thOp {
			return func(m *thState) int { return e }
		})
		cnt = 1
	}
	// Only the leader is ever a dispatch target (every branch target is a
	// leader), so the whole block collapses into one trampoline step: the
	// straight-line closures run in sequence — each returns its successor
	// pc or thDone on trap — and the terminator picks the exit ip.
	ops := make([]thOp, cnt)
	for i, fac := range g.factories {
		next := start + i + 1
		if i == cnt-1 {
			next = exit
		}
		ops[i] = fac(next)
	}
	if cnt == 1 {
		tf.ops[start] = ops[0]
	} else {
		seq := ops[:cnt-1]
		last := ops[cnt-1]
		tf.ops[start] = func(m *thState) int {
			for _, op := range seq {
				if op(m) < 0 {
					return thDone
				}
			}
			return last(m)
		}
	}
	for pc := start + 1; pc < end; pc++ {
		at := pc
		tf.ops[pc] = func(m *thState) int { return m.failAt(name, at, ErrUnreachable) }
	}
}

func isCmpOp(op opcode) bool {
	switch op {
	case opEq, opNe, opLtS, opGtS, opLeS, opGeS:
		return true
	}
	return false
}

// emitFuncSym translates one function block by block.
func emitFuncSym(m *Module, fi int, ir *funcIR, tm *thModule, sigs []hostSig) {
	f := &m.Funcs[fi]
	tf := tm.funcs[fi]
	g := &blockGen{
		f:    f,
		tf:   tf,
		ir:   ir,
		tm:   tm,
		sigs: sigs,
		name: f.Name,
		nl:   tf.numLocals,
	}
	// Block boundaries match computeBlockFuel's leader set exactly —
	// blockFuel itself cannot serve, because the final block of a
	// function that does not end in a branch carries zero fuel.
	n := len(f.code)
	leader := make([]bool, n+1)
	leader[0] = true
	for pc, in := range f.code {
		if isBranch[in.op] {
			leader[in.arg] = true
			leader[pc+1] = true
		}
	}
	for start := 0; start < n; {
		end := start + 1
		for end < n && !leader[end] {
			end++
		}
		g.translateBlock(start, end)
		start = end
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
