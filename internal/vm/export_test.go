package vm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// What FuzzLinkedModuleRuns (fuzzlink_test.go) needs from inside the
// package. The target itself lives in package vm_test so that it can import
// the packages whose guests seed it.

// FuzzArities is the host API the fuzz target links against beyond
// diffHosts: every import of the seed guests, at the arity the guest's own
// host table gave it.
type FuzzArities map[string]hostSig

// Learn records the arities m is linked against.
func (a FuzzArities) Learn(m *Module) {
	for i, name := range m.Imports {
		a[name] = m.lk.sigs[i]
	}
}

// hosts is diffHosts plus a stub per learned import that logs its call and
// answers a small value derived from its arguments — as a packed handle that
// is a short string low in memory, as a length a short loop — or -1, the
// host API's "absent".
func (a FuzzArities) hosts(log *[]int64) *HostTable {
	t := diffHosts(log)
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		tag := int64(3 + i)
		t.Register(HostFunc{
			Name: name, NArgs: a[name].nargs, HasRet: a[name].hasRet, Cost: 16,
			Fn: func(inst *Instance, args []int64) (int64, error) {
				*log = append(append(*log, tag), args...)
				v := tag
				for _, x := range args {
					v = v*31 + x
				}
				if v &= 0xff; v == 0xff {
					v = -1
				}
				return v, nil
			},
		})
	}
	return t
}

// ShapeSeeds is the rejected-shape table, the memcopy unit-test module and
// a few structured programs, as module bytes.
func ShapeSeeds() [][]byte {
	seeds := [][]byte{MustAssemble(memcopySrc).Encode()}
	for _, c := range rejectedShapes() {
		seeds = append(seeds, c.mod.Encode())
	}
	for seed := int64(0); seed < 4; seed++ {
		seeds = append(seeds, MustAssemble(genStructured(rand.New(rand.NewSource(seed)))).Encode())
	}
	return seeds
}

// DiffLinked decodes and links data against a's hosts and, if that is
// accepted, runs up to eight exported functions on both engines at two fuel
// budgets, failing t on any divergence, and fails t if a run calls an import
// its summary (ReachableImports) omits — the summary every method's effects
// are derived from must over-approximate what it does. It reports whether
// the module linked.
func DiffLinked(t testing.TB, data []byte, a FuzzArities) bool {
	mod, err := Decode(data)
	// A run may touch, and so materialize, all of MinPages and whatever
	// memgrow reaches up to MaxPages.
	if err != nil || mod.MinPages > 16 || mod.MaxPages > 256 {
		return false
	}
	if err := mod.Link(a.hosts(new([]int64))); err != nil {
		return false
	}
	ran := 0
	for idx, f := range mod.Funcs {
		if !f.Exported || ran == 8 {
			continue
		}
		ran++
		args := make([]int64, f.NumParams)
		for i := range args {
			args[i] = int64(3 + i)
		}
		for _, fuel := range []int64{64, 4096} {
			runDiff(t, mod, a.hosts, idx, args, fuel, fmt.Sprintf("%s fuel %d", f.Name, fuel))
		}
		reach, _ := mod.ReachableImports(f.Name)
		for name := range a.called(mod, idx, args) {
			if !reach[name] {
				t.Fatalf("%s called import %q, which ReachableImports omits (%v)", f.Name, name, reach)
			}
		}
	}
	return true
}

// called runs function idx once, at the larger fuel budget, against a's
// hosts and returns the names of the imports it called.
func (a FuzzArities) called(mod *Module, idx int, args []int64) map[string]bool {
	t := a.hosts(new([]int64))
	names := make(map[string]bool)
	for name, f := range t.funcs {
		fn := f.Fn
		f.Fn = func(inst *Instance, args []int64) (int64, error) {
			names[name] = true
			return fn(inst, args)
		}
	}
	if inst, err := NewInstance(mod, t, 4096); err == nil {
		inst.CallIndex(idx, args...) //nolint:errcheck // a trap still called what it called
	}
	return names
}

// StubHosts is a table of no-op host functions at the arities m is linked
// against: enough to instantiate m outside the runtime.
func StubHosts(m *Module) *HostTable {
	t := NewHostTable()
	for i, name := range m.Imports {
		t.Register(HostFunc{Name: name, NArgs: m.lk.sigs[i].nargs, HasRet: m.lk.sigs[i].hasRet,
			Fn: func(*Instance, []int64) (int64, error) { return 0, nil }})
	}
	return t
}
