package vm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func mustRun(t *testing.T, src, fn string, args ...int64) int64 {
	t.Helper()
	m, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	inst, err := NewInstance(m, nil, 1_000_000)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	got, err := inst.Call(fn, args...)
	if err != nil {
		t.Fatalf("Call(%s): %v", fn, err)
	}
	return got
}

func TestArithmetic(t *testing.T) {
	src := `
func main params=2
  local.get 0
  local.get 1
  add
  push 10
  mul
  ret
end`
	if got := mustRun(t, src, "main", 3, 4); got != 70 {
		t.Fatalf("got %d, want 70", got)
	}
}

func TestAllBinaryOps(t *testing.T) {
	cases := []struct {
		op   string
		a, b int64
		want int64
	}{
		{"add", 7, 5, 12},
		{"sub", 7, 5, 2},
		{"mul", 7, 5, 35},
		{"div_s", -7, 2, -3},
		{"rem_s", 7, 5, 2},
		{"and", 0b1100, 0b1010, 0b1000},
		{"or", 0b1100, 0b1010, 0b1110},
		{"xor", 0b1100, 0b1010, 0b0110},
		{"shl", 1, 4, 16},
		{"shr_s", -16, 2, -4},
		{"shr_u", -1, 60, 15},
		{"eq", 4, 4, 1},
		{"eq", 4, 5, 0},
		{"ne", 4, 5, 1},
		{"lt_s", -1, 0, 1},
		{"gt_s", 1, 0, 1},
		{"le_s", 3, 3, 1},
		{"ge_s", 2, 3, 0},
	}
	for _, c := range cases {
		src := fmt.Sprintf(`
func main params=2
  local.get 0
  local.get 1
  %s
  ret
end`, c.op)
		if got := mustRun(t, src, "main", c.a, c.b); got != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..n iteratively.
	src := `
func sum params=1 locals=2
  push 0
  local.set 1          ; acc = 0
  push 1
  local.set 2          ; i = 1
loop:
  local.get 2
  local.get 0
  gt_s
  jnz done             ; if i > n goto done
  local.get 1
  local.get 2
  add
  local.set 1          ; acc += i
  local.get 2
  push 1
  add
  local.set 2          ; i++
  jmp loop
done:
  local.get 1
  ret
end`
	if got := mustRun(t, src, "sum", 100); got != 5050 {
		t.Fatalf("sum(100) = %d", got)
	}
}

func TestFunctionCalls(t *testing.T) {
	// Recursive fibonacci via guest-level calls.
	src := `
func fib params=1
  local.get 0
  push 2
  lt_s
  jz rec
  local.get 0
  ret
rec:
  local.get 0
  push 1
  sub
  call fib
  local.get 0
  push 2
  sub
  call fib
  add
  ret
end`
	if got := mustRun(t, src, "fib", 15); got != 610 {
		t.Fatalf("fib(15) = %d", got)
	}
}

func TestMemoryOps(t *testing.T) {
	src := `
func main params=0
  push 1024
  push 123456789
  store64
  push 1024
  load64
  ret
end`
	if got := mustRun(t, src, "main"); got != 123456789 {
		t.Fatalf("load64 = %d", got)
	}
}

func TestStringLiteralData(t *testing.T) {
	src := `
func main params=0
  str "hello"
  swap
  load8_u     ; first byte of "hello"
  add         ; + len(5)... careful: stack was [ptr,len] -> swap -> [len,ptr]
  ret
end`
	// After swap: [len, ptr]; load8_u pops ptr pushes 'h'(104); add -> 104+5.
	if got := mustRun(t, src, "main"); got != 109 {
		t.Fatalf("got %d, want 109", got)
	}
}

func TestOutOfFuel(t *testing.T) {
	src := `
func spin params=0
loop:
  jmp loop
end`
	m := MustAssemble(src)
	inst, err := NewInstance(m, nil, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.Call("spin")
	if !errors.Is(err, ErrOutOfFuel) {
		t.Fatalf("err = %v, want ErrOutOfFuel", err)
	}
	if inst.FuelUsed() != 10_000 {
		t.Fatalf("FuelUsed = %d", inst.FuelUsed())
	}
}

func TestMemoryIsolationBounds(t *testing.T) {
	cases := []string{
		// Negative address.
		"push -8\n load64",
		// Past the end of the single initial page.
		fmt.Sprintf("push %d\n load64", PageBytes),
		fmt.Sprintf("push %d\n push 1\n store8", PageBytes),
		// Straddling the end.
		fmt.Sprintf("push %d\n load64", PageBytes-4),
	}
	for i, body := range cases {
		src := "func main params=0\n" + body + "\n  ret\nend"
		m := MustAssemble("module minpages=1 maxpages=1\n" + src)
		inst, err := NewInstance(m, nil, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Call("main"); !errors.Is(err, ErrMemOutOfBounds) {
			t.Errorf("case %d: err = %v, want ErrMemOutOfBounds", i, err)
		}
	}
}

func TestMemGrowAndLimit(t *testing.T) {
	src := fmt.Sprintf(`
module minpages=1 maxpages=2
func main params=0
  push %d
  memgrow
  pop
  push %d
  load64        ; now in-bounds after growth
  ret
end`, PageBytes, PageBytes+16)
	if got := mustRun(t, src, "main"); got != 0 {
		t.Fatalf("grown memory not zeroed: %d", got)
	}

	over := fmt.Sprintf(`
module minpages=1 maxpages=2
func main params=0
  push %d
  memgrow
  ret
end`, 10*PageBytes)
	m := MustAssemble(over)
	inst, _ := NewInstance(m, nil, 1000)
	if _, err := inst.Call("main"); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("err = %v, want ErrMemLimit", err)
	}
}

func TestDivByZeroTrap(t *testing.T) {
	src := `
func main params=1
  push 10
  local.get 0
  div_s
  ret
end`
	m := MustAssemble(src)
	inst, _ := NewInstance(m, nil, 1000)
	if _, err := inst.Call("main", 0); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("err = %v", err)
	}
	// Instance remains usable after a trap.
	got, err := inst.Call("main", 2)
	if err != nil || got != 5 {
		t.Fatalf("after trap: %d %v", got, err)
	}
}

func TestHostCall(t *testing.T) {
	hosts := NewHostTable()
	var captured []int64
	hosts.Register(HostFunc{
		Name:   "record",
		NArgs:  2,
		HasRet: true,
		Fn: func(inst *Instance, args []int64) (int64, error) {
			captured = append(captured, args...)
			return args[0] * args[1], nil
		},
	})
	src := `
func main params=0
  push 6
  push 7
  hostcall record
  ret
end`
	m := MustAssemble(src)
	inst, err := NewInstance(m, hosts, 1000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.Call("main")
	if err != nil || got != 42 {
		t.Fatalf("hostcall = %d, %v", got, err)
	}
	if len(captured) != 2 || captured[0] != 6 || captured[1] != 7 {
		t.Fatalf("captured = %v", captured)
	}
}

func TestHostCallErrorBecomesTrap(t *testing.T) {
	hosts := NewHostTable()
	sentinel := errors.New("storage exploded")
	hosts.Register(HostFunc{
		Name:  "boom",
		NArgs: 0,
		Fn: func(inst *Instance, args []int64) (int64, error) {
			return 0, sentinel
		},
	})
	m := MustAssemble("func main params=0\n  hostcall boom\n  ret\nend")
	inst, _ := NewInstance(m, hosts, 1000)
	_, err := inst.Call("main")
	if he, ok := AsHostError(err); !ok || !errors.Is(he.Err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnresolvedImportFailsInstantiation(t *testing.T) {
	m := MustAssemble("func main params=0\n  hostcall nosuch\n  ret\nend")
	if _, err := NewInstance(m, NewHostTable(), 1000); err == nil {
		t.Fatal("instantiation with unresolved import succeeded")
	}
}

func TestHostMemoryExchange(t *testing.T) {
	hosts := NewHostTable()
	hosts.Register(HostFunc{
		Name:   "upper",
		NArgs:  2,
		HasRet: true,
		Fn: func(inst *Instance, args []int64) (int64, error) {
			data, err := inst.MemRead(args[0], args[1])
			if err != nil {
				return 0, err
			}
			up := bytes.ToUpper(data)
			ptr, err := inst.Alloc(int64(len(up)))
			if err != nil {
				return 0, err
			}
			if err := inst.MemWrite(ptr, up); err != nil {
				return 0, err
			}
			return ptr, nil
		},
	})
	src := `
func main params=0
  str "abc"
  hostcall upper
  load8_u      ; first byte of the uppercased copy
  ret
end`
	m := MustAssemble(src)
	inst, _ := NewInstance(m, hosts, 10_000)
	got, err := inst.Call("main")
	if err != nil || got != 'A' {
		t.Fatalf("got %d, %v", got, err)
	}
}

func TestModuleEncodeDecodeRoundTrip(t *testing.T) {
	src := `
module minpages=2 maxpages=8
func helper params=1
  local.get 0
  push 1
  add
  ret
end
func main params=0 export
  str "data!"
  pop
  pop
  push 41
  call helper
  hostcall ext
  ret
end`
	m := MustAssemble(src)
	enc := m.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(dec.Funcs) != 2 || dec.MinPages != 2 || dec.MaxPages != 8 {
		t.Fatalf("decoded module %+v", dec)
	}
	if !dec.HasExport("main") || dec.HasExport("helper") {
		t.Fatal("export flags lost")
	}
	if len(dec.Imports) != 1 || dec.Imports[0] != "ext" {
		t.Fatalf("imports = %v", dec.Imports)
	}
	if string(dec.Data) != "data!" {
		t.Fatalf("data = %q", dec.Data)
	}

	hosts := NewHostTable()
	hosts.Register(HostFunc{Name: "ext", NArgs: 1, HasRet: true,
		Fn: func(inst *Instance, args []int64) (int64, error) { return args[0], nil }})
	inst, err := NewInstance(dec, hosts, 1000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.Call("main")
	if err != nil || got != 42 {
		t.Fatalf("decoded module ran: %d, %v", got, err)
	}
}

func TestDecodeGarbageRejected(t *testing.T) {
	if _, err := Decode([]byte("not a module at all")); err == nil {
		t.Fatal("garbage decoded")
	}
	m := MustAssemble("func f params=0\n  ret\nend")
	enc := m.Encode()
	for cut := 1; cut < len(enc); cut += 3 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

func TestDecodeFuzzQuick(t *testing.T) {
	// Random mutations of a valid module must never panic.
	m := MustAssemble(`
func main params=1 export
  local.get 0
  push 3
  add
  ret
end`)
	enc := m.Encode()
	f := func(pos uint16, val byte) bool {
		mut := append([]byte(nil), enc...)
		mut[int(pos)%len(mut)] = val
		_, _ = Decode(mut) // must not panic; error is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModules(t *testing.T) {
	bad := []string{
		// Branch out of range is impossible via asm (labels), so test
		// directly below; here: undefined label.
		"func f params=0\n  jmp nowhere\n  ret\nend",
		// Undefined call target.
		"func f params=0\n  call missing\n  ret\nend",
		// Local index out of range.
		"func f params=1\n  local.get 5\n  ret\nend",
		// Duplicate function.
		"func f params=0\n  ret\nend\nfunc f params=0\n  ret\nend",
	}
	for i, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("case %d assembled", i)
		}
	}
}

func TestValidateFallOffEnd(t *testing.T) {
	m := &Module{
		MinPages: 1, MaxPages: 1,
		Funcs: []Func{{Name: "f", code: []instr{{op: opNop}}}},
	}
	if err := m.Validate(); err == nil {
		t.Fatal("fall-off-end function validated")
	}
}

func TestReset(t *testing.T) {
	src := `
func main params=0
  push 0
  push 99
  store8
  push 0
  load8_u
  ret
end`
	m := MustAssemble(src)
	inst, _ := NewInstance(m, nil, 1000)
	if got, _ := inst.Call("main"); got != 99 {
		t.Fatalf("got %d", got)
	}
	inst.Reset(1000)
	// Memory must be re-imaged (zeroed here).
	src2 := "func peek params=0\n  push 0\n  load8_u\n  ret\nend"
	_ = src2
	got, err := inst.Call("main")
	if err != nil || got != 99 {
		t.Fatalf("after reset: %d %v", got, err)
	}
	if inst.FuelUsed() >= 1000 {
		t.Fatal("fuel not refilled")
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
func main params=1 export
  local.get 0
  push 5
  add
  hostcall print
  ret
end`
	m := MustAssemble(src)
	dis := Disassemble(m)
	// "push 5; add" is peephole-fused into "addi 5" by the assembler.
	for _, want := range []string{"func main params=1", "local.get 0", "hostcall print", "addi 5"} {
		if !strings.Contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestUnmeteredExecution(t *testing.T) {
	src := `
func sum params=1 locals=2
  push 0
  local.set 1
  push 1
  local.set 2
loop:
  local.get 2
  local.get 0
  gt_s
  jnz done
  local.get 1
  local.get 2
  add
  local.set 1
  local.get 2
  push 1
  add
  local.set 2
  jmp loop
done:
  local.get 1
  ret
end`
	m := MustAssemble(src)
	inst, _ := NewInstance(m, nil, 0) // unlimited
	got, err := inst.Call("sum", 1_000_000)
	if err != nil || got != 500000500000 {
		t.Fatalf("sum = %d, %v", got, err)
	}
}

func TestQuickArithAgainstGo(t *testing.T) {
	src := `
func expr params=3
  local.get 0
  local.get 1
  add
  local.get 2
  xor
  local.get 0
  sub
  ret
end`
	m := MustAssemble(src)
	inst, _ := NewInstance(m, nil, 0)
	f := func(a, b, c int64) bool {
		got, err := inst.Call("expr", a, b, c)
		return err == nil && got == ((a+b)^c)-a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeEncodeStable(t *testing.T) {
	// The binary form is the canonical representation stored in object
	// types; a decode/encode round trip must be byte-identical.
	m := MustAssemble(`
module minpages=2 maxpages=4
func helper params=2 locals=1
  local.get 0
  local.get 1
  add
  ret
end
func main params=0 export
  str "stable"
  pop
  pop
  push 1
  push 2
  call helper
  hostcall out
  ret
end`)
	enc1 := m.Encode()
	dec, err := Decode(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2 := dec.Encode()
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encode/decode/encode unstable: %d vs %d bytes", len(enc1), len(enc2))
	}
}
