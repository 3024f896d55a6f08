package vm

// Differential execution tests: seeded generators produce modules that
// run through both engines — the compiled one and the reference switch
// interpreter (interp_test.go) — asserting identical results, error strings
// (trap identity and location), FuelUsed, final linear memory, and host-call
// sequences. Each module is then ResetFast and re-run, so a compiled store
// that failed to raise the dirty high-water mark would leak state into the
// second round and diverge.
//
// The structured generator emits depth-disciplined assembly (every
// function returns one value, loops use dedicated counters so a generous
// budget runs them to completion, and a budget of 0 traps at the first
// charged block); the raw generator emits random bytecode with arbitrary
// control flow, typed by construction but for the occasional undisciplined
// instruction that linking must refuse, and runs metered only.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// diffHosts builds a host table whose calls append (tag, args...) to log,
// so the two tiers' host interaction order is comparable. poke writes
// guest memory through the host path (MemWrite tracks the dirty region)
// and returns a host error on out-of-bounds addresses.
func diffHosts(log *[]int64) *HostTable {
	t := NewHostTable()
	t.Register(HostFunc{
		Name: "mix", NArgs: 2, HasRet: true, Cost: 16,
		Fn: func(inst *Instance, args []int64) (int64, error) {
			*log = append(*log, 1, args[0], args[1])
			return (args[0]*31 + args[1]) ^ 0x5a5a, nil
		},
	})
	t.Register(HostFunc{
		Name: "poke", NArgs: 2, HasRet: false, Cost: 16,
		Fn: func(inst *Instance, args []int64) (int64, error) {
			*log = append(*log, 2, args[0], args[1])
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(args[1]))
			return 0, inst.MemWrite(args[0], b[:])
		},
	})
	return t
}

// sgen emits structured random assembly.
type sgen struct {
	r     *rand.Rand
	b     strings.Builder
	label int
	funcs []string // earlier functions, callable (params=1, one result)
}

func (g *sgen) lbl() string {
	g.label++
	return fmt.Sprintf("L%d", g.label)
}

func (g *sgen) emit(format string, args ...any) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

// loc picks a general-purpose local (0..3); locals 4 and 5 are reserved
// loop counters so random stores cannot break loop termination.
func (g *sgen) loc() int { return g.r.Intn(4) }

// pushVal emits instructions leaving exactly one value on the stack.
func (g *sgen) pushVal() {
	switch g.r.Intn(6) {
	case 0:
		g.emit("  push %d", g.r.Intn(10000)-100)
	case 1, 2:
		g.emit("  local.get %d", g.loc())
	case 3:
		g.emit("  local.get %d", g.loc())
		g.emit("  local.get %d", g.loc())
		g.emit("  %s", []string{"add", "sub", "mul", "and", "or", "xor"}[g.r.Intn(6)])
	case 4:
		g.emit("  local.get %d", g.loc())
		g.emit("  eqz")
	default:
		g.emit("  local.get %d", g.loc())
		g.emit("  push %d", 1+g.r.Intn(50))
		g.emit("  %s", []string{"add", "shl", "shr_s", "shr_u", "div_s", "rem_s", "lt_s", "ge_s"}[g.r.Intn(8)])
	}
}

// addr emits one address push: usually in bounds, occasionally past the
// one-page memory or negative so bounds traps are exercised, or at an edge
// of the first materialized steps or of the logical memory.
func (g *sgen) addr() {
	switch g.r.Intn(20) {
	case 0:
		g.emit("  push %d", PageBytes+g.r.Intn(5000))
	case 1:
		g.emit("  push -%d", 1+g.r.Intn(16))
	case 2:
		edges := []int{4088, 4095, 4096, 8184, 8191, 8192, PageBytes - 8, PageBytes - 1, PageBytes}
		g.emit("  push %d", edges[g.r.Intn(len(edges))])
	default:
		g.emit("  push %d", g.r.Intn(6000))
	}
}

// stmt emits one stack-neutral statement. loops counts enclosing loops
// (for counter assignment); nest limits recursion.
func (g *sgen) stmt(nest, loops int) {
	switch g.r.Intn(15) {
	case 0, 1:
		g.pushVal()
		g.pushVal()
		g.emit("  %s", []string{"add", "sub", "mul", "div_s", "rem_s", "xor", "eq", "lt_s", "gt_s"}[g.r.Intn(9)])
		g.emit("  local.set %d", g.loc())
	case 2:
		g.addr()
		g.pushVal()
		if g.r.Intn(2) == 0 {
			g.emit("  store64")
		} else {
			g.emit("  store8")
		}
	case 3:
		g.addr()
		if g.r.Intn(2) == 0 {
			g.emit("  load64")
		} else {
			g.emit("  load8_u")
		}
		g.emit("  local.set %d", g.loc())
	case 4:
		if nest > 0 {
			alt, end := g.lbl(), g.lbl()
			g.pushVal()
			g.emit("  jz %s", alt)
			g.stmts(nest-1, loops)
			g.emit("  jmp %s", end)
			g.emit("%s:", alt)
			g.stmts(nest-1, loops)
			g.emit("%s:", end)
			return
		}
		g.pushVal()
		g.emit("  local.set %d", g.loc())
	case 5:
		if nest > 0 && loops < 2 {
			ctr := 4 + loops // dedicated counter local
			top, done := g.lbl(), g.lbl()
			g.emit("  push %d", 1+g.r.Intn(4))
			g.emit("  local.set %d", ctr)
			g.emit("%s:", top)
			g.emit("  local.get %d", ctr)
			g.emit("  jz %s", done)
			g.stmts(nest-1, loops+1)
			g.emit("  local.get %d", ctr)
			g.emit("  push 1")
			g.emit("  sub")
			g.emit("  local.set %d", ctr)
			g.emit("  jmp %s", top)
			g.emit("%s:", done)
			return
		}
		g.pushVal()
		g.emit("  pop")
	case 6:
		if len(g.funcs) > 0 {
			g.pushVal()
			g.emit("  call %s", g.funcs[g.r.Intn(len(g.funcs))])
			g.emit("  local.set %d", g.loc())
			return
		}
		g.pushVal()
		g.emit("  local.set %d", g.loc())
	case 7:
		g.pushVal()
		g.pushVal()
		g.emit("  hostcall mix")
		g.emit("  local.set %d", g.loc())
	case 8:
		g.addr()
		g.pushVal()
		g.emit("  hostcall poke")
	case 9:
		g.pushVal()
		g.emit("  dup")
		g.emit("  mul")
		g.emit("  local.set %d", g.loc())
	case 10:
		g.pushVal()
		g.pushVal()
		g.emit("  swap")
		g.emit("  sub")
		g.emit("  local.set %d", g.loc())
	case 11:
		g.emit("  memsize")
		g.emit("  local.set %d", g.loc())
	case 12:
		g.emit("  local.get %d", g.loc())
		g.emit("  unpack_%s", []string{"ptr", "len"}[g.r.Intn(2)])
		g.emit("  local.set %d", g.loc())
	case 13:
		// memcopy(dst, src, n): overlapping or not, sometimes out of
		// bounds, now and then with a negative n.
		g.addr()
		g.addr()
		g.emit("  push %d", g.r.Intn(600)-8)
		g.emit("  memcopy")
	default:
		// Fused-pattern bait: the exact windows the peepholes match.
		i, j, k := g.loc(), g.loc(), g.loc()
		g.emit("  local.get %d", i)
		g.emit("  local.get %d", j)
		g.emit("  %s", []string{"add", "sub", "mul"}[g.r.Intn(3)])
		g.emit("  local.set %d", k)
	}
}

func (g *sgen) stmts(nest, loops int) {
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		g.stmt(nest, loops)
	}
}

func (g *sgen) genFunc(name string, exported bool) {
	decl := fmt.Sprintf("func %s params=1 locals=5", name)
	if exported {
		decl += " export"
	}
	g.emit("%s", decl)
	g.stmts(2, 0)
	g.emit("  local.get %d", g.loc())
	g.emit("  ret")
	g.emit("end")
	g.emit("")
}

// genStructured produces one random module: a few helpers plus an
// exported main, every function depth-disciplined.
func genStructured(r *rand.Rand) string {
	g := &sgen{r: r}
	for i, n := 0, r.Intn(3); i < n; i++ {
		name := fmt.Sprintf("helper%d", i)
		g.genFunc(name, false)
		g.funcs = append(g.funcs, name)
	}
	g.genFunc("main", true)
	return g.b.String()
}

// rawOps is the opcode palette of the raw generator: no calls or host
// calls, so modules are import-free and every loop is bounded by the
// metered fuel budget.
var rawOps = []opcode{
	opNop, opPush, opPop, opDup, opSwap,
	opLocalGet, opLocalSet, opLocalTee,
	opJmp, opJz, opJnz,
	opAdd, opSub, opMul, opDivS, opRemS, opAnd, opOr, opXor,
	opShl, opShrS, opShrU,
	opEq, opNe, opLtS, opGtS, opLeS, opGeS, opEqz,
	opLoad8U, opLoad64, opStore8, opStore64,
	opMemSize, opAddI, opUnpackPtr, opUnpackLen, opMemCopy,
}

// genRaw builds a random module directly from opcodes, tracking the operand
// depth as it goes: an op is drawn from those whose pops fit the current
// depth, a backward branch targets a pc of equal depth, and a forward branch
// stays open until the stream reaches its depth again (or is closed by a
// stub after the final ret that adjusts to the return depth). One module in
// six carries one instruction drawn with no regard to depth, so linking's
// refusals are exercised on random programs too.
func genRaw(r *rand.Rand) *Module {
	n := 5 + r.Intn(24)
	sloppy := -1
	if r.Intn(6) == 0 {
		sloppy = r.Intn(n)
	}
	type fix struct{ pc, depth int } // a forward branch awaiting its target
	var open []fix
	code := make([]instr, 0, n+8)
	depthAt := make([]int, 0, n)
	d := 0
	for pc := 0; pc < n; pc++ {
		kept := open[:0]
		for _, fx := range open {
			if fx.depth == d && r.Intn(2) == 0 {
				code[fx.pc].arg = int64(pc)
			} else {
				kept = append(kept, fx)
			}
		}
		open = kept
		depthAt = append(depthAt, d)

		op := rawOps[r.Intn(len(rawOps))]
		for pc != sloppy && int(stackEffect[op].pop) > d {
			op = rawOps[r.Intn(len(rawOps))]
		}
		in := instr{op: op}
		nd := max(d-int(stackEffect[op].pop), 0) + int(stackEffect[op].push)
		switch {
		case isBranch[op]:
			var back []int
			for t, td := range depthAt {
				if td == nd {
					back = append(back, t)
				}
			}
			if len(back) > 0 && r.Intn(2) == 0 {
				in.arg = int64(back[r.Intn(len(back))])
			} else {
				open = append(open, fix{pc, nd})
			}
			if op == opJmp && len(open) > 0 {
				// Nothing falls through a jmp: continue from an open branch.
				nd = open[r.Intn(len(open))].depth
			}
		case op == opLocalGet || op == opLocalSet || op == opLocalTee:
			in.arg = int64(r.Intn(3))
		case op == opPush:
			in.arg = int64(r.Intn(4000) - 10)
		case op == opAddI:
			in.arg = int64(r.Intn(64) - 8)
		}
		code = append(code, in)
		d = nd
	}
	ret := len(code)
	code = append(code, instr{op: opRet})
	for _, fx := range open {
		code[fx.pc].arg = int64(len(code))
		for ; fx.depth > d; fx.depth-- {
			code = append(code, instr{op: opPop})
		}
		for ; fx.depth < d; fx.depth++ {
			code = append(code, instr{op: opPush, arg: 1})
		}
		code = append(code, instr{op: opJmp, arg: int64(ret)})
	}
	m := &Module{Funcs: []Func{{
		Name: "main", NumParams: 1, NumLocals: 2, Exported: true, code: code,
	}}}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// runDiff executes function idx of mod on both engines and fails on any
// observable divergence, then ResetFasts both instances and runs a second
// round to catch dirty-region leaks across pooled reuse. hosts, when not
// nil, builds each engine's host table over that engine's call log.
func runDiff(t testing.TB, mod *Module, hosts func(log *[]int64) *HostTable, idx int, args []int64, fuel int64, tag string) {
	t.Helper()
	var logA, logB []int64
	var htA, htB *HostTable
	if hosts != nil {
		htA, htB = hosts(&logA), hosts(&logB)
	}
	ia, err := NewInstance(mod, htA, fuel)
	if err != nil {
		t.Fatalf("%s: interp instance: %v", tag, err)
	}
	ib, err := NewInstance(mod, htB, fuel)
	if err != nil {
		t.Fatalf("%s: threaded instance: %v", tag, err)
	}
	ref := newReference(ia)

	round := func(n int) {
		t.Helper()
		ra, ea := ref.CallIndex(idx, args...)
		rb, eb := ib.CallIndex(idx, args...)
		if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
			t.Fatalf("%s round %d: trap divergence\ninterp:   %v\nthreaded: %v", tag, n, ea, eb)
		}
		if ea == nil && ra != rb {
			t.Fatalf("%s round %d: result divergence: interp=%d threaded=%d", tag, n, ra, rb)
		}
		if ia.FuelUsed() != ib.FuelUsed() {
			t.Fatalf("%s round %d: FuelUsed divergence: interp=%d threaded=%d (err=%v)",
				tag, n, ia.FuelUsed(), ib.FuelUsed(), ea)
		}
		if !sameImage(ia, ib) {
			t.Fatalf("%s round %d: memory divergence (sizes %d vs %d)", tag, n, ia.MemSize(), ib.MemSize())
		}
		if !slices.Equal(logA, logB) {
			t.Fatalf("%s round %d: host-call log divergence:\ninterp:   %v\nthreaded: %v", tag, n, logA, logB)
		}
	}
	round(1)
	ia.ResetFast(fuel)
	ib.ResetFast(fuel)
	logA, logB = nil, nil
	round(2)
}

func TestDifferentialStructured(t *testing.T) {
	seeds := 300
	if raceEnabled {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)*9176 + 7))
		src := genStructured(r)
		// Structured programs are depth-disciplined by construction: every
		// one of them must assemble and (in runDiff) link.
		mod, err := Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
		}
		arg := r.Int63n(1000)
		for _, fuel := range []int64{0, int64(40 + r.Intn(400)), 1 << 20} {
			runDiff(t, mod, diffHosts, mod.FuncIndex("main"), []int64{arg}, fuel, fmt.Sprintf("seed %d fuel %d\n%s", seed, fuel, src))
		}
	}
}

func TestDifferentialRaw(t *testing.T) {
	seeds, floor := 600, 400
	if raceEnabled {
		seeds, floor = 150, 100
	}
	linked := 0
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)*31337 + 11))
		mod := genRaw(r)
		if err := mod.Link(nil); err != nil {
			if !errors.Is(err, ErrBadModule) {
				t.Fatalf("raw seed %d: link: %v", seed, err)
			}
			continue
		}
		linked++
		// Raw programs may loop forever: metered budgets only.
		for _, fuel := range []int64{int64(30 + r.Intn(200)), 5000} {
			runDiff(t, mod, nil, 0, []int64{r.Int63n(100)}, fuel, fmt.Sprintf("raw seed %d fuel %d", seed, fuel))
		}
	}
	t.Logf("raw modules: %d of %d linked", linked, seeds)
	// Non-vacuity: the suite compares engines only on what links, and every
	// seed links but the ones given an undisciplined instruction.
	if linked < floor || linked == seeds {
		t.Fatalf("raw generator lost coverage: %d of %d seeds linked (want at least %d, and some refused)", linked, seeds, floor)
	}
}
