package vm_test

import (
	"testing"

	"lambdastore/internal/chaos"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/vm"
)

// FuzzLinkedModuleRuns: whatever bytes decode and link also run — no panic,
// no register-file index out of range, no pc the typing did not foresee —
// and run identically on the compiled engine and the reference interpreter
// (results, trap strings and pcs, FuelUsed, memory, host-call order). The
// seeds are the two shipped guests with the most code, linked against stubs
// of the host API at its real arities, and the shapes linking refuses.
func FuzzLinkedModuleRuns(f *testing.F) {
	arities := vm.FuzzArities{}
	var guests []*core.ObjectType
	for _, newType := range []func() (*core.ObjectType, error){retwis.NewType, chaos.LedgerType} {
		typ, err := newType()
		if err != nil {
			f.Fatal(err)
		}
		arities.Learn(typ.Module)
		guests = append(guests, typ)
	}
	for _, typ := range guests {
		seed := typ.Module.Encode()
		if !vm.DiffLinked(f, seed, arities) {
			f.Fatalf("the %s guest does not link against the fuzz hosts", typ.Name)
		}
		f.Add(seed)
	}
	for _, seed := range vm.ShapeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { vm.DiffLinked(t, data, arities) })
}
