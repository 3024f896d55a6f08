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
