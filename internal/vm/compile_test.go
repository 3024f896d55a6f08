package vm

import (
	"testing"
)

// spinSrc is a compute-heavy kernel: a counted arithmetic loop whose body
// is pure register traffic, the warm-path shape the threaded tier targets.
const spinSrc = `
func spin params=1 locals=3 export
loop:
  local.get 1
  local.get 0
  ge_s
  jnz done
  local.get 2
  local.get 1
  mul
  push 7
  add
  local.set 2
  local.get 1
  push 1
  add
  local.set 1
  jmp loop
done:
  local.get 2
  ret
end
`

func TestTierSelection(t *testing.T) {
	mod := MustAssemble(spinSrc)
	inst, err := NewInstance(mod, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.EffectiveTier() != TierThreaded {
		t.Fatalf("default tier: got %v, want threaded", inst.EffectiveTier())
	}
	inst.SetTier(TierInterp)
	if inst.EffectiveTier() != TierInterp {
		t.Fatalf("after SetTier(interp): got %v", inst.EffectiveTier())
	}
	inst.SetTier(TierThreaded)
	want, err := inst.Call("spin", 100)
	if err != nil {
		t.Fatal(err)
	}
	inst2, _ := NewInstance(mod, nil, 0)
	inst2.SetTier(TierInterp)
	got, err := inst2.Call("spin", 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tier divergence: interp %d, threaded %d", got, want)
	}
}

// TestDepthInconsistentFallback hand-builds a module whose merge point is
// reached at two different stack depths; the compiler must reject it and
// the instance must fall back to the interpreter.
func TestDepthInconsistentFallback(t *testing.T) {
	f := Func{
		Name:      "weird",
		NumParams: 1,
		NumLocals: 1,
		Exported:  true,
		code: []instr{
			{op: opLocalGet, arg: 0}, // 0
			{op: opJz, arg: 4},       // 1
			{op: opPush, arg: 7},     // 2: depth 1
			{op: opJmp, arg: 6},      // 3
			{op: opPush, arg: 9},     // 4: depth 1
			{op: opPush, arg: 9},     // 5: depth 2
			{op: opNop, arg: 0},      // 6: merge at depth 1 vs 2
			{op: opRet, arg: 0},      // 7
		},
	}
	mod := &Module{Funcs: []Func{f}}
	before := statInterpFallbacks.Load()
	if err := mod.Validate(); err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(mod, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.EffectiveTier() != TierInterp {
		t.Fatal("depth-inconsistent module should fall back to the interpreter")
	}
	if statInterpFallbacks.Load() <= before {
		t.Fatal("fallback counter did not advance")
	}
	// Both arms still execute correctly through the interpreter.
	for _, arg := range []int64{0, 1} {
		if _, err := inst.Call("weird", arg); err != nil {
			t.Fatalf("arg %d: %v", arg, err)
		}
		inst.Reset(0)
	}
}

// TestHostSigMismatchFallback instantiates the same module against two
// host tables whose signatures differ; the second instantiation must run
// interpreted rather than reuse threaded code compiled for the first.
func TestHostSigMismatchFallback(t *testing.T) {
	src := `
func main params=1 locals=0 export
  local.get 0
  hostcall f
  ret
end
`
	mod := MustAssemble(src)

	h1 := NewHostTable()
	h1.Register(HostFunc{Name: "f", NArgs: 1, HasRet: true, Cost: 1,
		Fn: func(inst *Instance, args []int64) (int64, error) { return args[0] * 2, nil }})
	inst1, err := NewInstance(mod, h1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst1.EffectiveTier() != TierThreaded {
		t.Fatal("first instantiation should compile threaded")
	}
	got, err := inst1.Call("main", 21)
	if err != nil || got != 42 {
		t.Fatalf("threaded hostcall: %d, %v", got, err)
	}

	h2 := NewHostTable()
	h2.Register(HostFunc{Name: "f", NArgs: 1, HasRet: false, Cost: 1,
		Fn: func(inst *Instance, args []int64) (int64, error) { return 0, nil }})
	inst2, err := NewInstance(mod, h2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst2.EffectiveTier() != TierInterp {
		t.Fatal("sig-mismatched instantiation should fall back to the interpreter")
	}
	if _, err := inst2.Call("main", 21); err != nil {
		t.Fatal(err)
	}
}

// TestThreadedResetFastIsolation taints memory through threaded-tier
// stores (including the fused store peephole) at addresses far apart,
// then checks ResetFast scrubs every dirty byte.
func TestThreadedResetFastIsolation(t *testing.T) {
	src := `
func taint params=2 locals=0 export
  local.get 0
  local.get 1
  store64
  local.get 0
  push 40000
  add
  local.get 1
  store8
  push 0
  ret
end
`
	mod := MustAssemble(src)
	inst, err := NewInstance(mod, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.EffectiveTier() != TierThreaded {
		t.Fatal("expected threaded tier")
	}
	if _, err := inst.Call("taint", 1000, -1); err != nil {
		t.Fatal(err)
	}
	inst.ResetFast(0)
	buf, err := inst.MemRead(0, inst.MemSize())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x after ResetFast; compiled-code write leaked", i, b)
		}
	}
}

// TestThreadedZeroAllocWarm asserts the warm invoke path of the threaded
// tier performs zero heap allocations once the register file has grown.
func TestThreadedZeroAllocWarm(t *testing.T) {
	mod := MustAssemble(spinSrc)
	inst, err := NewInstance(mod, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx := mod.FuncIndex("spin")
	args := []int64{200}
	// Warm up: grows regFile and hargs scratch to steady state.
	if _, err := inst.CallIndex(idx, args...); err != nil {
		t.Fatal(err)
	}
	inst.ResetFast(0)
	avg := testing.AllocsPerRun(100, func() {
		if _, err := inst.CallIndex(idx, args...); err != nil {
			t.Fatal(err)
		}
		inst.ResetFast(0)
	})
	if avg != 0 {
		t.Fatalf("warm threaded invoke allocates %.1f allocs/op, want 0", avg)
	}
}
