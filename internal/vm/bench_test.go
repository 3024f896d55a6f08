package vm

import "testing"

// benchSpin measures warm compute-bound invocations — one call plus the
// pooled-instance ResetFast — mirroring how the runtime drives co-located
// reads. engine picks what runs the call on the instance.
func benchSpin(b *testing.B, engine func(*Instance) func(idx int, args ...int64) (int64, error)) {
	mod := MustAssemble(spinSrc)
	inst, err := NewInstance(mod, nil, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	call := engine(inst)
	idx := mod.FuncIndex("spin")
	if _, err := call(idx, 4000); err != nil {
		b.Fatal(err)
	}
	inst.ResetFast(64 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := call(idx, 4000); err != nil {
			b.Fatal(err)
		}
		inst.ResetFast(64 << 20)
	}
}

func BenchmarkSpinThreaded(b *testing.B) {
	benchSpin(b, func(inst *Instance) func(int, ...int64) (int64, error) { return inst.CallIndex })
}

// BenchmarkSpinInterp is the reference interpreter on the same kernel: the
// speed-up the compiled engine is worth, not a product path.
func BenchmarkSpinInterp(b *testing.B) {
	benchSpin(b, func(inst *Instance) func(int, ...int64) (int64, error) { return newReference(inst).CallIndex })
}
