package vm

import (
	"bytes"
	"cmp"
	"errors"
	"testing"
)

// memcopySrc writes "abcdefgh" at 100, then runs one memcopy(dst, src, n)
// from its parameters. Everything up to the jmp is one basic block of 9
// instructions, charged 9 fuel at its leader (the tail block is free), so
// the copy's ceil(n/8) comes on top of 9.
const memcopySrc = `
func mc params=3 export
  push 100
  push 0x6867666564636261
  store64
  local.get 0
  local.get 1
  local.get 2
  memcopy
  push 0
  jmp out
out:
  ret
end
`

const memcopyBlockFuel = 9

func TestMemCopy(t *testing.T) {
	mod := MustAssemble(memcopySrc)
	end := int64(PageBytes)
	cases := []struct {
		name         string
		dst, src, n  int64
		fuel         int64 // 0 runs the case under testFuel
		err          error
		want         string // memory [96, 112) after the call
		wantFuelUsed int64  // checked when fuel > 0
	}{
		{name: "disjoint", dst: 104, src: 100, n: 4, want: "\x00\x00\x00\x00abcdabcd\x00\x00\x00\x00"},
		{name: "overlap, dst above src", dst: 102, src: 100, n: 6, want: "\x00\x00\x00\x00ababcdef\x00\x00\x00\x00"},
		{name: "overlap, dst below src", dst: 98, src: 100, n: 8, want: "\x00\x00abcdefghgh\x00\x00\x00\x00"},
		{name: "n = 0 at the end of memory", dst: end, src: end, n: 0, want: "\x00\x00\x00\x00abcdefgh\x00\x00\x00\x00"},
		{name: "src past the end", dst: 0, src: end - 4, n: 8, err: ErrMemOutOfBounds},
		{name: "src negative", dst: 0, src: -1, n: 1, err: ErrMemOutOfBounds},
		{name: "dst past the end", dst: end - 4, src: 100, n: 8, err: ErrMemOutOfBounds},
		{name: "dst negative", dst: -8, src: 100, n: 8, err: ErrMemOutOfBounds},
		{name: "negative n", dst: 104, src: 100, n: -1, err: ErrMemOutOfBounds},
		{name: "n past memory", dst: 0, src: 0, n: end + 1, err: ErrMemOutOfBounds},
		{name: "charges ceil(n/8)", dst: 200, src: 100, n: 9, fuel: 1000,
			want: "\x00\x00\x00\x00abcdefgh\x00\x00\x00\x00", wantFuelUsed: memcopyBlockFuel + 2},
		{name: "exact budget", dst: 200, src: 100, n: 64, fuel: memcopyBlockFuel + 8,
			want: "\x00\x00\x00\x00abcdefgh\x00\x00\x00\x00", wantFuelUsed: memcopyBlockFuel + 8},
		{name: "fuel runs out on the copy", dst: 96, src: 100, n: 64, fuel: memcopyBlockFuel + 7, err: ErrOutOfFuel,
			want: "\x00\x00\x00\x00abcdefgh\x00\x00\x00\x00", wantFuelUsed: memcopyBlockFuel + 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fuel := cmp.Or(c.fuel, testFuel)
			inst, err := NewInstance(mod, nil, fuel)
			if err != nil {
				t.Fatal(err)
			}
			_, err = inst.Call("mc", c.dst, c.src, c.n)
			if !errors.Is(err, c.err) || (err == nil) != (c.err == nil) {
				t.Fatalf("err = %v, want %v", err, c.err)
			}
			if c.want != "" {
				if got := inst.mem[96:112]; !bytes.Equal(got, []byte(c.want)) {
					t.Fatalf("memory [96,112) = %q, want %q", got, c.want)
				}
			}
			if c.fuel > 0 && inst.FuelUsed() != c.wantFuelUsed {
				t.Fatalf("FuelUsed = %d, want %d", inst.FuelUsed(), c.wantFuelUsed)
			}
			// The reference interpreter agrees on result, trap, fuel and
			// memory, and so does a second round after ResetFast.
			runDiff(t, mod, nil, mod.FuncIndex("mc"), []int64{c.dst, c.src, c.n}, fuel, c.name)
		})
	}
}

// TestMemCopyResetFastIsolation: a memcopy into the top of memory raises
// the dirty high-water mark, so ResetFast leaves the same image Reset does.
func TestMemCopyResetFastIsolation(t *testing.T) {
	mod := MustAssemble(memcopySrc)
	fast, err := NewInstance(mod, nil, testFuel)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewInstance(mod, nil, testFuel)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []*Instance{fast, full} {
		if _, err := inst.Call("mc", PageBytes-8, 100, 8); err != nil {
			t.Fatal(err)
		}
		if got := inst.mem[PageBytes-8:]; string(got) != "abcdefgh" {
			t.Fatalf("top of memory = %q", got)
		}
	}
	fast.ResetFast(testFuel)
	full.Reset(testFuel)
	if !sameImage(fast, full) {
		t.Fatal("ResetFast left bytes a memcopy wrote that Reset clears")
	}
	for i, b := range fast.mem {
		if b != 0 {
			t.Fatalf("byte %d = %#x after ResetFast", i, b)
		}
	}
}
