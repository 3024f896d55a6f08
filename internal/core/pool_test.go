package core

import (
	"runtime"
	"testing"

	"lambdastore/internal/vm"
)

// TestIdleLaneKeepsOneInstance checks what a warm lane retains once its
// method stops running: the first instance, and none of the extra ones a
// burst of overlapping calls created. So what an idle node holds does not
// depend on how many calls of a method once happened to overlap.
func TestIdleLaneKeepsOneInstance(t *testing.T) {
	mod, err := vm.Assemble(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := NewInstancePool(DefaultFuel, nil, nil)
	burst := func(n int) {
		insts := make([]*vm.Instance, n)
		for i := range insts {
			if insts[i], err = p.get(mod, "add"); err != nil {
				t.Fatal(err)
			}
		}
		for _, inst := range insts {
			p.put(mod, "add", inst)
		}
	}
	burst(8)
	burst(8)
	if warm, _ := p.Stats(); warm == 0 {
		t.Fatal("a second burst reused no instance")
	}

	// Two collections empty a sync.Pool whatever it held.
	runtime.GC()
	runtime.GC()
	warm0, cold0 := p.Stats()
	burst(2)
	if warm, cold := p.Stats(); warm-warm0 != 1 || cold-cold0 != 1 {
		t.Fatalf("after the lane idled: %d warm, %d cold starts; want 1 and 1", warm-warm0, cold-cold0)
	}
}
