package vm

import (
	"testing"

	"lambdastore/internal/wire/wiretest"
)

// FuzzModuleDecode covers the module binary stored inside object types and
// shipped between nodes: a data segment, an import, a helper, branches.
func FuzzModuleDecode(f *testing.F) {
	m := MustAssemble(`
module minpages=2 maxpages=4
func helper params=2 locals=1
  local.get 0
  local.get 1
  add
  ret
end
func main params=1 export
  str "stable"
  pop
  pop
loop:
  local.get 0
  jz done
  local.get 0
  push 1
  sub
  local.set 0
  jmp loop
done:
  push 2
  push 3
  call helper
  hostcall now
  add
  ret
end`)
	wiretest.Fuzz(f, wiretest.Of("module", m, (*Module).Encode, Decode))
}

// TestDecodeRejectsWrappingSizes: the memory ceiling and the local counts are
// varints a peer names; values large enough to wrap the arithmetic that
// bounds them used to pass validation.
func TestDecodeRejectsWrappingSizes(t *testing.T) {
	m := MustAssemble("func f params=0 export\n  ret\nend")
	m.MaxPages = 1<<48 + 1
	if _, err := Decode(m.Encode()); err == nil {
		t.Fatal("a module declaring 2^48+1 pages of memory decoded")
	}
	m = MustAssemble("func f params=0 export\n  ret\nend")
	m.Funcs[0].NumParams, m.Funcs[0].NumLocals = 1<<62, 1<<62
	if _, err := Decode(m.Encode()); err == nil {
		t.Fatal("a function declaring 2^63 locals decoded")
	}
}
