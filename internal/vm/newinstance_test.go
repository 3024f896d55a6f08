package vm_test

import (
	"runtime"
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/vm"
)

// retwisModule returns the Retwis guest, linked against stubs of the host
// API at its real arities, and its first instance, which linked it.
func retwisModule(tb testing.TB) (*vm.Module, *vm.HostTable) {
	tb.Helper()
	mod := retwis.MustType().Module
	hosts := vm.StubHosts(mod)
	if _, err := vm.NewInstance(mod, hosts, core.DefaultFuel); err != nil {
		tb.Fatal(err)
	}
	return mod, hosts
}

// TestNewInstanceFootprint pins a cold start from the second instance on:
// two allocations, the Instance and a backing as long as the module's
// high-water mark (here its data segment, in one 4 KB step), not the whole
// 64 KB minimum page; the resolved host functions are the module's, shared.
func TestNewInstanceFootprint(t *testing.T) {
	mod, hosts := retwisModule(t)
	instantiate := func() {
		if _, err := vm.NewInstance(mod, hosts, core.DefaultFuel); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		instantiate()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs := testing.AllocsPerRun(runs, instantiate); allocs > 2 || bytes > 16<<10 {
		t.Fatalf("NewInstance: %.0f allocs and %d B per instance, want <= 2 and <= 16 KB", allocs, bytes)
	}
}

// BenchmarkNewInstance is a cold start of the Retwis guest once its module
// is linked: what the instance pool pays when it has no warm instance.
func BenchmarkNewInstance(b *testing.B) {
	mod, hosts := retwisModule(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := vm.NewInstance(mod, hosts, core.DefaultFuel); err != nil {
			b.Fatal(err)
		}
	}
}
