package vm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lambdastore/internal/wire"
)

// PageBytes is the granularity of linear memory growth (the WASM page size).
const PageBytes = 64 << 10

// Limits guarding against hostile modules.
const (
	maxFunctions  = 4096
	maxCodeLen    = 1 << 20
	maxLocals     = 256
	maxImports    = 256
	maxDataBytes  = 8 << 20
	maxMemoryMax  = 1 << 30
	moduleMagic   = 0x4c4f564d // "LOVM"
	moduleVersion = 1
)

// Validation and decode errors.
var (
	ErrBadModule = errors.New("vm: malformed module")
)

// Func is one guest function: params arrive as the first NumParams locals;
// the function's return values are whatever remains on the value stack when
// it returns to the caller (0 or more, but the public entry points expect
// at most one).
type Func struct {
	Name      string
	NumParams int
	NumLocals int // locals beyond the parameters, zero-initialized
	Exported  bool
	code      []instr
	// blockFuel, aligned with code, carries the fuel cost of the basic
	// block starting at each instruction (0 for non-leaders): fuel is
	// charged once per block entry instead of once per instruction.
	// Computed by Validate.
	blockFuel []int32
}

// Module is a validated unit of guest code: a set of functions, the host
// imports they reference, and an initial data segment copied into linear
// memory at instantiation. Modules are immutable and safely shared by
// concurrent instances.
type Module struct {
	Funcs    []Func
	Imports  []string // host function names referenced by opHostCall
	Data     []byte   // initial memory image, placed at address 0
	MinPages int
	MaxPages int

	funcIdx map[string]int
	// lk holds the module's linked form (see Link). A pointer so Module
	// values stay copyable and copies share the compilation.
	lk *linkage
}

// linkage is a module's one executable form: the host arities its operand
// stack was typed against and the code compiled from that typing.
type linkage struct {
	mu   sync.Mutex
	sigs []hostSig
	th   *thModule // nil until a link succeeds
}

// Link resolves the module's imports against hosts, types its operand stack
// (ir.go) and compiles it (compile.go), once; NewInstance links too, so
// linking ahead only moves the error to where a module is accepted. It fails
// with ErrBadModule, naming function, pc and mnemonic, for a module whose
// stack cannot be typed, and for a host table whose arities differ from the
// ones the module is already linked against: the compiled operand offsets
// are only right for those.
func (m *Module) Link(hosts *HostTable) error {
	_, _, err := m.link(hosts)
	return err
}

func (m *Module) link(hosts *HostTable) (*thModule, []*HostFunc, error) {
	if m.lk == nil {
		return nil, nil, fmt.Errorf("%w: not validated", ErrBadModule)
	}
	resolved, err := hosts.resolve(m.Imports)
	if err != nil {
		return nil, nil, err
	}
	lk := m.lk
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.th == nil {
		sigs := make([]hostSig, len(resolved))
		for i, h := range resolved {
			sigs[i] = hostSig{nargs: h.NArgs, hasRet: h.HasRet}
		}
		start := time.Now()
		th, err := compileModule(m, sigs)
		statCompileNs.Add(time.Since(start).Nanoseconds())
		if err != nil {
			return nil, nil, err
		}
		lk.th, lk.sigs = th, sigs
		statCompiledModules.Add(1)
		return th, resolved, nil
	}
	for i, h := range resolved {
		if was := lk.sigs[i]; was.nargs != h.NArgs || was.hasRet != h.HasRet {
			return nil, nil, fmt.Errorf("%w: import %q is linked as %d args, result %v; this host table offers %d args, result %v",
				ErrBadModule, m.Imports[i], was.nargs, was.hasRet, h.NArgs, h.HasRet)
		}
	}
	return lk.th, resolved, nil
}

// FuncIndex returns the index of the named function, or -1.
func (m *Module) FuncIndex(name string) int {
	if i, ok := m.funcIdx[name]; ok {
		return i
	}
	return -1
}

// HasExport reports whether name is an exported function of the module.
func (m *Module) HasExport(name string) bool {
	i := m.FuncIndex(name)
	return i >= 0 && m.Funcs[i].Exported
}

// ReachableImports returns the set of host import names any execution of
// the named function could reach, following guest call edges (opCall)
// transitively. The walk is conservative — every statically present call
// site counts, reachable or not at run time — which is exactly what the
// read-only method classifier wants: a method whose reachable imports
// include no mutating host function provably never touches the write
// buffer. ok is false when no such function exists.
func (m *Module) ReachableImports(entry string) (map[string]bool, bool) {
	start := m.FuncIndex(entry)
	if start < 0 {
		return nil, false
	}
	seen := make([]bool, len(m.Funcs))
	stack := []int{start}
	imports := make(map[string]bool)
	for len(stack) > 0 {
		fi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fi < 0 || fi >= len(m.Funcs) || seen[fi] {
			continue
		}
		seen[fi] = true
		for _, in := range m.Funcs[fi].code {
			switch in.op {
			case opCall:
				stack = append(stack, int(in.arg))
			case opHostCall:
				if in.arg >= 0 && in.arg < int64(len(m.Imports)) {
					imports[m.Imports[in.arg]] = true
				}
			}
		}
	}
	return imports, true
}

// buildIndex populates the name index and checks for duplicates.
func (m *Module) buildIndex() error {
	m.funcIdx = make(map[string]int, len(m.Funcs))
	for i, f := range m.Funcs {
		if f.Name == "" {
			return fmt.Errorf("%w: function %d unnamed", ErrBadModule, i)
		}
		if _, dup := m.funcIdx[f.Name]; dup {
			return fmt.Errorf("%w: duplicate function %q", ErrBadModule, f.Name)
		}
		m.funcIdx[f.Name] = i
	}
	return nil
}

// Validate checks the invariants that need no host table: known opcodes,
// in-range branch targets, local, function and import indices. The shape of
// the operand stack is typed at link time (Link), once the host arities are
// known; only memory accesses are left to run-time checks.
func (m *Module) Validate() error {
	if len(m.Funcs) == 0 || len(m.Funcs) > maxFunctions {
		return fmt.Errorf("%w: %d functions", ErrBadModule, len(m.Funcs))
	}
	if len(m.Imports) > maxImports {
		return fmt.Errorf("%w: %d imports", ErrBadModule, len(m.Imports))
	}
	if len(m.Data) > maxDataBytes {
		return fmt.Errorf("%w: data segment %d bytes", ErrBadModule, len(m.Data))
	}
	if m.MinPages <= 0 {
		m.MinPages = 1
	}
	if m.MaxPages <= 0 {
		m.MaxPages = 256 // 16 MiB default ceiling
	}
	if m.MaxPages > maxMemoryMax/PageBytes {
		return fmt.Errorf("%w: max memory too large", ErrBadModule)
	}
	if m.MinPages > m.MaxPages {
		return fmt.Errorf("%w: min pages %d > max pages %d", ErrBadModule, m.MinPages, m.MaxPages)
	}
	if len(m.Data) > m.MinPages*PageBytes {
		return fmt.Errorf("%w: data segment exceeds initial memory", ErrBadModule)
	}
	if err := m.buildIndex(); err != nil {
		return err
	}
	for fi := range m.Funcs {
		f := &m.Funcs[fi]
		// Each is bounded on its own first: decoded from a varint, their sum
		// can wrap.
		if uint(f.NumParams) > maxLocals || uint(f.NumLocals) > maxLocals || f.NumParams+f.NumLocals > maxLocals {
			return fmt.Errorf("%w: func %q locals", ErrBadModule, f.Name)
		}
		if len(f.code) == 0 || len(f.code) > maxCodeLen {
			return fmt.Errorf("%w: func %q code length %d", ErrBadModule, f.Name, len(f.code))
		}
		nLocals := int64(f.NumParams + f.NumLocals)
		for pc, in := range f.code {
			if in.op >= opMax || opNames[in.op] == "" {
				return fmt.Errorf("%w: func %q pc %d: unknown opcode %d", ErrBadModule, f.Name, pc, in.op)
			}
			switch {
			case isBranch[in.op]:
				if in.arg < 0 || in.arg >= int64(len(f.code)) {
					return fmt.Errorf("%w: func %q pc %d: branch target %d out of range", ErrBadModule, f.Name, pc, in.arg)
				}
			case in.op == opLocalGet || in.op == opLocalSet || in.op == opLocalTee:
				if in.arg < 0 || in.arg >= nLocals {
					return fmt.Errorf("%w: func %q pc %d: local %d out of range", ErrBadModule, f.Name, pc, in.arg)
				}
			case in.op == opLocalAddI:
				if idx := in.arg >> 32; idx < 0 || idx >= nLocals {
					return fmt.Errorf("%w: func %q pc %d: local %d out of range", ErrBadModule, f.Name, pc, idx)
				}
			case in.op == opCall:
				if in.arg < 0 || in.arg >= int64(len(m.Funcs)) {
					return fmt.Errorf("%w: func %q pc %d: call target %d out of range", ErrBadModule, f.Name, pc, in.arg)
				}
			case in.op == opHostCall:
				if in.arg < 0 || in.arg >= int64(len(m.Imports)) {
					return fmt.Errorf("%w: func %q pc %d: import %d out of range", ErrBadModule, f.Name, pc, in.arg)
				}
			}
		}
		// Every function must end in an instruction that cannot fall off the
		// end: ret, halt, jmp or unreachable.
		last := f.code[len(f.code)-1].op
		if last != opRet && last != opHalt && last != opJmp && last != opUnreachable {
			return fmt.Errorf("%w: func %q may fall off the end", ErrBadModule, f.Name)
		}
		f.blockFuel = computeBlockFuel(f.code)
	}
	if m.lk == nil {
		m.lk = &linkage{}
	}
	return nil
}

// computeBlockFuel splits code into basic blocks and returns a slice,
// aligned with code, holding each block leader's instruction count (zero
// for non-leaders). Leaders are instruction 0, every branch target, and
// the instruction after every branch; a block's cost is the straight-line
// instruction count up to (exclusive) the next leader, so a block's whole
// cost is charged once on entry. Calls and host calls do not
// end blocks: execution resumes mid-block at pc+1, which was already paid
// for at the leader.
func computeBlockFuel(code []instr) []int32 {
	leader := make([]bool, len(code)+1)
	leader[0] = true
	for pc, in := range code {
		if isBranch[in.op] {
			leader[in.arg] = true
			leader[pc+1] = true
		}
	}
	out := make([]int32, len(code))
	start := 0
	for pc := 1; pc <= len(code); pc++ {
		if leader[pc] {
			out[start] = int32(pc - start)
			start = pc
		}
	}
	return out
}

// Encode serializes the module. The binary form is what LambdaStore stores
// inside object types and ships between nodes.
func (m *Module) Encode() []byte {
	var b []byte
	b = wire.AppendUint32(b, moduleMagic)
	b = wire.AppendUint32(b, moduleVersion)
	b = wire.AppendUvarint(b, uint64(m.MinPages))
	b = wire.AppendUvarint(b, uint64(m.MaxPages))
	b = wire.AppendBytes(b, m.Data)
	b = wire.AppendUvarint(b, uint64(len(m.Imports)))
	for _, imp := range m.Imports {
		b = wire.AppendString(b, imp)
	}
	b = wire.AppendUvarint(b, uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		b = wire.AppendString(b, f.Name)
		b = wire.AppendUvarint(b, uint64(f.NumParams))
		b = wire.AppendUvarint(b, uint64(f.NumLocals))
		b = wire.AppendFlag(b, f.Exported)
		b = wire.AppendUvarint(b, uint64(len(f.code)))
		for _, in := range f.code {
			b = append(b, byte(in.op))
			if hasOperand[in.op] {
				b = wire.AppendVarint(b, in.arg)
			}
		}
	}
	return b
}

// Decode parses and validates a serialized module.
func Decode(data []byte) (*Module, error) {
	r := wire.NewReader(data)
	if r.Uint32() != moduleMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadModule)
	}
	if r.Uint32() != moduleVersion {
		return nil, fmt.Errorf("%w: unsupported version", ErrBadModule)
	}
	m := &Module{MinPages: int(r.Uvarint()), MaxPages: int(r.Uvarint()), Data: r.BytesCopy()}
	m.Imports = make([]string, r.Count(1))
	for i := range m.Imports {
		m.Imports[i] = r.Str()
	}
	// A function is at least a name length, three varints and a code length.
	m.Funcs = make([]Func, r.Count(5))
	for i := range m.Funcs {
		f := &m.Funcs[i]
		f.Name, f.NumParams, f.NumLocals, f.Exported = r.Str(), int(r.Uvarint()), int(r.Uvarint()), r.Flag()
		f.code = make([]instr, r.Count(1))
		for c := range f.code {
			in := instr{op: opcode(r.Byte())}
			if in.op < opMax && hasOperand[in.op] {
				in.arg = r.Varint()
			}
			f.code[c] = in
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModule, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
