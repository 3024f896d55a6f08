package vm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// rejectedShape is a validated module linking must refuse, with the
// location its error has to name.
type rejectedShape struct {
	name string
	mod  *Module
	want string // substring of the error: function, pc and mnemonic
}

// rejectedShapes is every way a module's operand stack can fail to type
// (against diffHosts). The table is also the refusing half of
// FuzzLinkedModuleRuns' seed corpus.
func rejectedShapes() []rejectedShape {
	asm := func(name, src, want string) rejectedShape {
		return rejectedShape{name, MustAssemble(src), want}
	}
	pops := func(class, body, want string) rejectedShape {
		return asm("underflow/"+class, "func main params=1 locals=1 export\n"+body+"\n  ret\nend", want)
	}
	merge := &Module{Funcs: []Func{{
		Name: "weird", NumParams: 1, NumLocals: 1, Exported: true,
		code: []instr{
			{op: opLocalGet, arg: 0}, // 0
			{op: opJz, arg: 4},       // 1
			{op: opPush, arg: 7},     // 2: depth 1
			{op: opJmp, arg: 6},      // 3
			{op: opPush, arg: 9},     // 4: depth 1
			{op: opPush, arg: 9},     // 5: depth 2
			{op: opNop},              // 6: merge at depth 1 vs 2
			{op: opRet},              // 7
		},
	}}}
	if err := merge.Validate(); err != nil {
		panic(err)
	}
	return []rejectedShape{
		{"two-depth merge", merge, `func "weird" pc 6 (nop): stack depth 2 here, 1 on another path`},
		pops("stack", "  pop", `func "main" pc 0 (pop): pops 1 with 0 on the stack`),
		pops("swap", "  push 1\n  swap", `func "main" pc 1 (swap): pops 2 with 1`),
		pops("local", "  local.set 1", `func "main" pc 0 (local.set): pops 1 with 0`),
		pops("alu", "  add", `func "main" pc 0 (add): pops 2 with 0`),
		pops("memory", "  push 8\n  store64", `func "main" pc 1 (store64): pops 2 with 1`),
		pops("memcopy", "  push 8\n  push 0\n  memcopy", `func "main" pc 2 (memcopy): pops 3 with 2`),
		pops("jz", "top:\n  jz top", `func "main" pc 0 (jz): pops 1 with 0`),
		pops("hostcall", "  push 1\n  hostcall mix", `func "main" pc 1 (hostcall): pops 2 with 1`),
		asm("underflow/call", `
func two params=2
  local.get 0
  ret
end
func main params=0 export
  push 1
  call two
  ret
end`, `func "main" pc 1 (call): pops 2 with 1`),
		// The callee pops what its caller pushed: the frame base protects it.
		asm("underflow/callee", `
func evil params=0
  pop
  ret
end
func main params=0 export
  push 42
  call evil
  ret
end`, `func "evil" pc 0 (pop): pops 1 with 0`),
		asm("mismatched ret depths", `
func main params=1 export
  local.get 0
  jz bare
  push 1
  ret
bare:
  ret
end`, `func "main" pc 4 (ret): stack depth 0 here, 1 on another path (the ret at pc 3)`),
		asm("recursion without a base case", `
func main params=0 export
  call main
  ret
end`, `func "main" pc 0 (call): the return count of "main" is unsettled`),
		asm("frame deeper than 512", "func main params=1 export\n"+strings.Repeat("  local.get 0\n", maxFrameDepth+1)+"  ret\nend",
			fmt.Sprintf(`func "main" pc %d (local.get): stack depth %d exceeds the frame limit %d`, maxFrameDepth, maxFrameDepth+1, maxFrameDepth)),
	}
}

func TestLinkRejects(t *testing.T) {
	for _, c := range rejectedShapes() {
		err := c.mod.Link(diffHosts(new([]int64)))
		if !errors.Is(err, ErrBadModule) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Link = %v\nwant ErrBadModule naming %s", c.name, err, c.want)
		}
		if _, err := NewInstance(c.mod, diffHosts(new([]int64)), testFuel); !errors.Is(err, ErrBadModule) {
			t.Errorf("%s: NewInstance = %v, want ErrBadModule", c.name, err)
		}
	}
}

// TestRecursionSettles: return counts on a call cycle are inferred from the
// paths that return without recursing — directly, and for a function that
// has no such path of its own, through the one it calls.
func TestRecursionSettles(t *testing.T) {
	mod := MustAssemble(`
func a params=1 export
  local.get 0
  jz base
  local.get 0
  call b
  ret
base:
  push 1
  ret
end
func b params=1
  local.get 0
  push 1
  sub
  call a
  ret
end`)
	runDiff(t, mod, nil, mod.FuncIndex("a"), []int64{9}, 0, "a(9)")
	inst, err := NewInstance(mod, nil, testFuel)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := inst.Call("a", 9); err != nil || got != 1 {
		t.Fatalf("a(9) = %d, %v", got, err)
	}
}

// TestRelinkOtherArities: compiled operand offsets are only right for the
// arities a module was typed against, so a host table that changes one is
// refused, naming the import; the same arities from another table are fine.
func TestRelinkOtherArities(t *testing.T) {
	mod := MustAssemble("func main params=1 export\n  local.get 0\n  hostcall f\n  ret\nend")
	table := func(hasRet bool) *HostTable {
		h := NewHostTable()
		h.Register(HostFunc{Name: "f", NArgs: 1, HasRet: hasRet,
			Fn: func(inst *Instance, args []int64) (int64, error) { return args[0] * 2, nil }})
		return h
	}
	for i := 0; i < 2; i++ {
		inst, err := NewInstance(mod, table(true), testFuel)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := inst.Call("main", 21); err != nil || got != 42 {
			t.Fatalf("hostcall: %d, %v", got, err)
		}
	}
	err := mod.Link(table(false))
	if !errors.Is(err, ErrBadModule) || !strings.Contains(err.Error(), `import "f" is linked as 1 args, result true`) {
		t.Fatalf("relink with another arity: %v", err)
	}
}

// TestConcurrentFirstLink: instances of a module nobody linked ahead may be
// created from several goroutines at once (a pool's cold starts); exactly
// one of them compiles it.
func TestConcurrentFirstLink(t *testing.T) {
	mod := MustAssemble(spinSrc)
	before := statCompiledModules.Load()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst, err := NewInstance(mod, nil, testFuel)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := inst.Call("spin", 10); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := statCompiledModules.Load() - before; got != 1 {
		t.Fatalf("module compiled %d times, want once", got)
	}
}

// TestCallDepthBoundary: with every frame typed to at most maxFrameDepth
// operands, the only stack limit left at run time is maxCallDepth frames —
// on both engines, at the same pc.
func TestCallDepthBoundary(t *testing.T) {
	// rec(n) holds a full frame across its recursive call: 511 operands
	// plus the argument.
	mod := MustAssemble(`
func rec params=1 export
  local.get 0
  jz base
` + strings.Repeat("  push 0\n", maxFrameDepth-1) + `
  local.get 0
  push 1
  sub
  call rec
  local.set 0
` + strings.Repeat("  pop\n", maxFrameDepth-1) + `
  local.get 0
  ret
base:
  push 7
  ret
end`)
	callPC := -1
	for pc, in := range mod.Funcs[0].code {
		if in.op == opCall {
			callPC = pc
		}
	}
	inst, err := NewInstance(mod, nil, testFuel)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := inst.Call("rec", maxCallDepth-1); err != nil || got != 7 {
		t.Fatalf("rec(%d) = %d, %v; want 7 from %d full frames", maxCallDepth-1, got, err, maxCallDepth)
	}
	_, err = inst.Call("rec", maxCallDepth)
	if want := fmt.Sprintf("(in rec at pc %d)", callPC); !errors.Is(err, ErrStackOverflow) || !strings.Contains(err.Error(), want) {
		t.Fatalf("rec(%d) = %v, want ErrStackOverflow %s", maxCallDepth, err, want)
	}
	for _, n := range []int64{maxCallDepth - 1, maxCallDepth} {
		runDiff(t, mod, nil, 0, []int64{n}, 0, fmt.Sprintf("rec(%d)", n))
	}
}

// TestReentrantCallRefused: a host function calling back into the instance
// that is running it gets an error, not a second call tree over the live
// register file.
func TestReentrantCallRefused(t *testing.T) {
	hosts := NewHostTable()
	hosts.Register(HostFunc{Name: "again", HasRet: true,
		Fn: func(inst *Instance, _ []int64) (int64, error) { return inst.Call("main") }})
	inst, err := NewInstance(MustAssemble("func main params=0 export\n  hostcall again\n  ret\nend"), hosts, testFuel)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the refusal leaves the instance callable
		_, err := inst.Call("main")
		if he, ok := AsHostError(err); !ok || !strings.Contains(he.Err.Error(), "while the instance is running") {
			t.Fatalf("re-entrant call: %v", err)
		}
	}
}
