// Package vm implements the isolation runtime LambdaStore executes object
// methods in. The paper's prototype embeds WebAssembly; under the stdlib-only
// constraint this package provides the same properties from scratch: guest
// functions are untrusted bytecode for a stack machine with a linear memory,
// every memory access is bounds-checked (software fault isolation), and
// execution is metered with a fuel budget so a runaway function cannot
// monopolize a storage node. Guests interact with the outside world only
// through an explicit host-call table.
//
// A small assembler (see asm.go) compiles a textual form of the bytecode so
// applications — including the Retwis methods used by the paper's
// evaluation — can be written readably.
package vm

import "fmt"

// opcode identifies one VM instruction.
type opcode uint8

// Instruction set. Values are i64; comparison results are 0 or 1.
const (
	opNop opcode = iota
	opUnreachable

	// Stack manipulation.
	opPush // operand: immediate value
	opPop
	opDup
	opSwap

	// Locals (function parameters first, then declared locals).
	opLocalGet // operand: local index
	opLocalSet // operand: local index
	opLocalTee // operand: local index

	// Control flow. Branch operands are absolute instruction indices.
	opJmp  // operand: target
	opJz   // operand: target; pops condition, jumps if zero
	opJnz  // operand: target; pops condition, jumps if nonzero
	opCall // operand: function index within the module
	opRet
	opHalt

	// Arithmetic and bitwise (pop b, pop a, push a OP b).
	opAdd
	opSub
	opMul
	opDivS // traps on divide by zero or MinInt64/-1 overflow
	opRemS // traps on divide by zero
	opAnd
	opOr
	opXor
	opShl
	opShrS
	opShrU

	// Comparisons (pop b, pop a, push bool).
	opEq
	opNe
	opLtS
	opGtS
	opLeS
	opGeS
	opEqz // pops one value, pushes value == 0

	// Linear memory. Addresses are popped from the stack; every access is
	// bounds-checked against the current memory size.
	opLoad8U  // pop addr, push zero-extended byte
	opLoad64  // pop addr, push little-endian u64
	opStore8  // pop value, pop addr
	opStore64 // pop value, pop addr
	opMemSize // push current memory size in bytes
	opMemGrow // pop additional bytes, push old size (traps past max)

	// Host interface.
	opHostCall // operand: import index; arity defined by the host function

	// Superinstructions: fused forms of the idioms hot bytecode (notably
	// the Retwis get_timeline loop) executes constantly. They are emitted
	// by the assembler — `str` compiles to one push2, the unpack pseudo-ops
	// to one instruction each, and a peephole pass fuses immediate
	// arithmetic — so fuel accounting is paid once per idiom instead of once
	// per component instruction. Appended
	// after opHostCall so existing encoded modules keep their opcode
	// values.
	opPushPair  // operand: hi<<32|lo (both non-negative); pushes hi, then lo
	opUnpackPtr // packed (ptr<<32|len) handle on TOS -> ptr
	opUnpackLen // packed (ptr<<32|len) handle on TOS -> len
	opAddI      // operand: immediate; TOS += imm
	opLocalAddI // operand: local<<32|uint32(imm); locals[local] += imm

	opMax // sentinel
)

// hasOperand reports which opcodes carry an immediate operand.
var hasOperand = [opMax]bool{
	opPush:      true,
	opLocalGet:  true,
	opLocalSet:  true,
	opLocalTee:  true,
	opJmp:       true,
	opJz:        true,
	opJnz:       true,
	opCall:      true,
	opHostCall:  true,
	opPushPair:  true,
	opAddI:      true,
	opLocalAddI: true,
}

// isBranch reports which opcodes have an instruction-index operand that
// validation must range-check.
var isBranch = [opMax]bool{opJmp: true, opJz: true, opJnz: true}

// stackEffect gives the pop/push arity stack typing (ir.go) applies to each
// opcode. jmp, ret, halt, unreachable, nop and local.addi touch no operand;
// call and hostcall take theirs from the callee and the host signature.
var stackEffect = [opMax]struct{ pop, push int8 }{
	opPush:      {0, 1},
	opPop:       {1, 0},
	opDup:       {1, 2},
	opSwap:      {2, 2},
	opLocalGet:  {0, 1},
	opLocalSet:  {1, 0},
	opLocalTee:  {1, 1},
	opJz:        {1, 0},
	opJnz:       {1, 0},
	opAdd:       {2, 1},
	opSub:       {2, 1},
	opMul:       {2, 1},
	opDivS:      {2, 1},
	opRemS:      {2, 1},
	opAnd:       {2, 1},
	opOr:        {2, 1},
	opXor:       {2, 1},
	opShl:       {2, 1},
	opShrS:      {2, 1},
	opShrU:      {2, 1},
	opEq:        {2, 1},
	opNe:        {2, 1},
	opLtS:       {2, 1},
	opGtS:       {2, 1},
	opLeS:       {2, 1},
	opGeS:       {2, 1},
	opEqz:       {1, 1},
	opLoad8U:    {1, 1},
	opLoad64:    {1, 1},
	opStore8:    {2, 0},
	opStore64:   {2, 0},
	opMemSize:   {0, 1},
	opMemGrow:   {1, 1},
	opPushPair:  {0, 2},
	opUnpackPtr: {1, 1},
	opUnpackLen: {1, 1},
	opAddI:      {1, 1},
}

// opNames maps opcodes to their assembly mnemonics.
var opNames = [opMax]string{
	opNop:         "nop",
	opUnreachable: "unreachable",
	opPush:        "push",
	opPop:         "pop",
	opDup:         "dup",
	opSwap:        "swap",
	opLocalGet:    "local.get",
	opLocalSet:    "local.set",
	opLocalTee:    "local.tee",
	opJmp:         "jmp",
	opJz:          "jz",
	opJnz:         "jnz",
	opCall:        "call",
	opRet:         "ret",
	opHalt:        "halt",
	opAdd:         "add",
	opSub:         "sub",
	opMul:         "mul",
	opDivS:        "div_s",
	opRemS:        "rem_s",
	opAnd:         "and",
	opOr:          "or",
	opXor:         "xor",
	opShl:         "shl",
	opShrS:        "shr_s",
	opShrU:        "shr_u",
	opEq:          "eq",
	opNe:          "ne",
	opLtS:         "lt_s",
	opGtS:         "gt_s",
	opLeS:         "le_s",
	opGeS:         "ge_s",
	opEqz:         "eqz",
	opLoad8U:      "load8_u",
	opLoad64:      "load64",
	opStore8:      "store8",
	opStore64:     "store64",
	opMemSize:     "memsize",
	opMemGrow:     "memgrow",
	opHostCall:    "hostcall",
	opPushPair:    "push2",
	opUnpackPtr:   "unpack_ptr",
	opUnpackLen:   "unpack_len",
	opAddI:        "addi",
	opLocalAddI:   "local.addi",
}

// opByName is the reverse mapping used by the assembler.
var opByName = func() map[string]opcode {
	m := make(map[string]opcode, opMax)
	for op := opcode(0); op < opMax; op++ {
		if opNames[op] != "" {
			m[opNames[op]] = op
		}
	}
	return m
}()

// instr is one decoded instruction.
type instr struct {
	op  opcode
	arg int64
}

func (in instr) String() string {
	if in.op < opMax && hasOperand[in.op] {
		return fmt.Sprintf("%s %d", opNames[in.op], in.arg)
	}
	if in.op < opMax {
		return opNames[in.op]
	}
	return fmt.Sprintf("op(%d)", in.op)
}
