package vm

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// lazySrc's data segment ("lazy", at 0) makes a fresh module's instances
// start with one 4 KB step of backing; each function is one access.
const lazySrc = `
func ld8 params=1 export
  str "lazy"
  pop
  pop
  local.get 0
  load8_u
  ret
end
func ld64 params=1 export
  local.get 0
  load64
  ret
end
func st8 params=1 export
  local.get 0
  push 7
  store8
  push 0
  ret
end
func st64 params=1 export
  local.get 0
  push 7
  store64
  push 0
  ret
end
func mc params=3 export
  local.get 0
  local.get 1
  local.get 2
  memcopy
  push 0
  ret
end
func size params=0 export
  memsize
  ret
end
func grow params=1 export
  local.get 0
  memgrow
  ret
end
`

// TestMaterializeOnFirstTouch walks one access at a time over the edges of
// the materialized and the logical memory: the last materialized byte, the
// first unmaterialized one, the logical end and one past it. An access
// inside the logical memory succeeds and leaves the backing covering it,
// grown by at least doubling in 4 KB steps; one outside traps and leaves
// the backing alone; none changes the fuel an access costs. Each case also
// runs on both engines (runDiff), which compare the logical image.
func TestMaterializeOnFirstTouch(t *testing.T) {
	const end = PageBytes
	cases := []struct {
		name    string
		fn      string
		args    []int64
		err     error
		backing int // len(mem) after the call
	}{
		{"store to the last materialized byte", "st8", []int64{4095}, nil, 4096},
		{"load of the last materialized word", "ld64", []int64{4088}, nil, 4096},
		{"store to the first unmaterialized byte", "st8", []int64{4096}, nil, 8192},
		{"load of the first unmaterialized byte", "ld8", []int64{4096}, nil, 8192},
		{"load across the materialized edge", "ld64", []int64{4092}, nil, 8192},
		{"store far past the edge", "st64", []int64{20000}, nil, 20480},
		{"store to the logical end's last word", "st64", []int64{end - 8}, nil, end},
		{"load at the logical end", "ld8", []int64{end}, ErrMemOutOfBounds, 4096},
		{"store one past the logical end", "st64", []int64{end - 7}, ErrMemOutOfBounds, 4096},
		{"load at a wrapping address", "ld64", []int64{math.MaxInt64 - 3}, ErrMemOutOfBounds, 4096},
		{"store at a wrapping address", "st64", []int64{math.MaxInt64 - 3}, ErrMemOutOfBounds, 4096},
		{"memcopy across the materialized edge", "mc", []int64{4090, 0, 16}, nil, 8192},
		{"memcopy from unmaterialized memory", "mc", []int64{0, 5000, 8}, nil, 8192},
		{"memcopy of nothing at the logical end", "mc", []int64{end, end, 0}, nil, end},
		{"memcopy one past the logical end", "mc", []int64{end - 8, 0, 9}, ErrMemOutOfBounds, 4096},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mod := MustAssemble(lazySrc)
			inst, err := NewInstance(mod, nil, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if len(inst.mem) != 4096 || inst.MemSize() != end {
				t.Fatalf("fresh instance: backing %d, size %d; want 4096, %d", len(inst.mem), inst.MemSize(), end)
			}
			if _, err := inst.Call(c.fn, c.args...); !errors.Is(err, c.err) || (err == nil) != (c.err == nil) {
				t.Fatalf("err = %v, want %v", err, c.err)
			}
			if len(inst.mem) != c.backing || inst.MemSize() != end {
				t.Fatalf("backing %d, size %d; want %d, %d", len(inst.mem), inst.MemSize(), c.backing, end)
			}
			// The same access inside the first step costs the same fuel.
			ctl, _ := NewInstance(MustAssemble(lazySrc), nil, 1000)
			ctlArgs := append([]int64(nil), c.args...)
			ctlArgs[0] = 64
			ctl.Call(c.fn, ctlArgs...) //nolint:errcheck // fuel is what is compared
			if c.err == nil && inst.FuelUsed() != ctl.FuelUsed() {
				t.Fatalf("FuelUsed = %d, an access inside the backing uses %d", inst.FuelUsed(), ctl.FuelUsed())
			}
			runDiff(t, MustAssemble(lazySrc), nil, mod.FuncIndex(c.fn), c.args, 1000, c.name)
		})
	}
}

// TestMemCopyAcrossEdgeMovesBytes: a memcopy whose destination straddles
// the materialized edge lands every byte, and one whose source lies past
// the edge copies zeros.
func TestMemCopyAcrossEdgeMovesBytes(t *testing.T) {
	inst, err := NewInstance(MustAssemble(lazySrc), nil, testFuel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("mc", 4094, 0, 4); err != nil {
		t.Fatal(err)
	}
	if got, _ := inst.MemRead(4090, 10); !bytes.Equal(got, []byte("\x00\x00\x00\x00lazy\x00\x00")) {
		t.Fatalf("[4090, 4100) = %q", got)
	}
	if _, err := inst.Call("mc", 1, 50000, 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := inst.MemRead(0, 4); string(got) != "l\x00\x00y" {
		t.Fatalf("[0, 4) = %q", got)
	}
}

// TestGrowMovesOnlyTheLogicalSize: memgrow and Alloc allocate nothing and
// charge nothing beyond their instruction; memsize reports the logical
// size; the grown memory materializes where it is touched.
func TestGrowMovesOnlyTheLogicalSize(t *testing.T) {
	inst, err := NewInstance(MustAssemble(lazySrc), nil, testFuel)
	if err != nil {
		t.Fatal(err)
	}
	if old, err := inst.Call("grow", 15*PageBytes); err != nil || old != PageBytes {
		t.Fatalf("grow = %d, %v; want %d", old, err, PageBytes)
	}
	if got, _ := inst.Call("size"); got != 16*PageBytes || len(inst.mem) != 4096 {
		t.Fatalf("memsize = %d with backing %d; want %d with 4096", got, len(inst.mem), 16*PageBytes)
	}
	if _, err := inst.Call("grow", 241*PageBytes); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("grow past MaxPages: %v", err)
	}
	if _, err := inst.Call("grow", math.MaxInt64); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("grow by MaxInt64: %v", err)
	}
	ptr, err := inst.Alloc(16 * PageBytes)
	if err != nil || inst.MemSize() != 17*PageBytes || len(inst.mem) != 4096 {
		t.Fatalf("Alloc = %d, %v: size %d, backing %d", ptr, err, inst.MemSize(), len(inst.mem))
	}
	if _, err := inst.Call("st8", 16*PageBytes); err != nil || len(inst.mem) != 16*PageBytes+4096 {
		t.Fatalf("store into grown memory: %v, backing %d", err, len(inst.mem))
	}
	mod := MustAssemble(lazySrc)
	for _, fuel := range []int64{0, 1000} {
		runDiff(t, mod, nil, mod.FuncIndex("grow"), []int64{15 * PageBytes}, fuel, "grow")
	}
}

// TestNewInstanceStartsAtHighWater: a new instance starts with the longest
// backing any instance of its module has materialized, up to MinPages.
func TestNewInstanceStartsAtHighWater(t *testing.T) {
	mod := MustAssemble(lazySrc)
	first, err := NewInstance(mod, nil, testFuel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Call("st8", 20000); err != nil {
		t.Fatal(err)
	}
	second, _ := NewInstance(mod, nil, testFuel)
	if len(second.mem) != 20480 || string(second.mem[:4]) != "lazy" {
		t.Fatalf("second instance backing %d (data %q), want 20480", len(second.mem), second.mem[:4])
	}
	first.Call("grow", 3*PageBytes)  //nolint:errcheck
	first.Call("st8", 3*PageBytes+5) //nolint:errcheck
	third, _ := NewInstance(mod, nil, testFuel)
	if len(third.mem) != PageBytes {
		t.Fatalf("third instance backing %d, want MinPages (%d)", len(third.mem), PageBytes)
	}
}

// TestResetDropsGrownMemory: a guest that grew its memory 16 pages and
// touched the top leaves, after either reset, an instance that retains one
// page at most, at MinPages again, with its data segment re-imaged.
func TestResetDropsGrownMemory(t *testing.T) {
	for _, fast := range []bool{true, false} {
		inst, err := NewInstance(MustAssemble(lazySrc), nil, testFuel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Call("grow", 16*PageBytes); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Call("st64", 17*PageBytes-8); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Call("st8", 1); err != nil {
			t.Fatal(err)
		}
		if cap(inst.mem) != 17*PageBytes {
			t.Fatalf("backing %d before the reset, want %d", cap(inst.mem), 17*PageBytes)
		}
		if fast {
			inst.ResetFast(testFuel)
		} else {
			inst.Reset(testFuel)
		}
		if cap(inst.mem) > PageBytes || inst.MemSize() != PageBytes || string(inst.mem[:4]) != "lazy" {
			t.Fatalf("fast=%v: after the reset the backing holds %d B (data %q), size %d", fast, cap(inst.mem), inst.mem[:4], inst.MemSize())
		}
		if got, err := inst.Call("ld64", PageBytes-8); err != nil || got != 0 {
			t.Fatalf("fast=%v: top of the reset memory = %d, %v", fast, got, err)
		}
	}
}

// TestMemViewSurvivesMaterialization: a view taken before a later access
// materializes more memory — and so moves the backing — still reads the
// bytes it was taken over, as a host call with a key view and a value
// view relies on.
func TestMemViewSurvivesMaterialization(t *testing.T) {
	inst, err := NewInstance(MustAssemble(lazySrc), nil, testFuel)
	if err != nil {
		t.Fatal(err)
	}
	key, err := inst.MemView(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	val, err := inst.MemView(PageBytes-16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.mem) != PageBytes {
		t.Fatalf("backing %d after a view at the logical end", len(inst.mem))
	}
	if string(key) != "lazy" || !bytes.Equal(val, make([]byte, 16)) {
		t.Fatalf("views read %q and %q", key, val)
	}
	if _, err := inst.MemView(PageBytes-15, 16); !errors.Is(err, ErrMemOutOfBounds) {
		t.Fatalf("view past the end: %v", err)
	}
	if err := inst.MemWrite(PageBytes, nil); err != nil {
		t.Fatalf("empty write at the end: %v", err)
	}
}
