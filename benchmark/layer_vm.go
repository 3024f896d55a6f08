package main

import (
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/vm"
)

// vmProbe is guest execution alone: the real Retwis module, assembled from
// source, running the op's method in a benchmark-owned instance whose host
// functions do no storage work — they answer from canned lists of the
// workload's shape. What is left is the interpreter or compiled tier, the
// guest's own loops and copies, and the host-call boundary's fixed cost.
type vmProbe struct {
	mod   *vm.Module
	hosts *vm.HostTable
	inst  *vm.Instance
}

// vmStub is what the stub hosts answer from, set per call.
type vmStub struct {
	args    [][]byte
	listLen int64
	entry   []byte
}

func newVMProbe() (*vmProbe, error) {
	mod, err := vm.Assemble(retwis.Source)
	if err != nil {
		return nil, err
	}
	p := &vmProbe{mod: mod, hosts: stubHosts()}
	p.inst, err = vm.NewInstance(mod, p.hosts, core.DefaultFuel)
	return p, err
}

// stubHosts mirrors the arity and fuel cost of every host function the
// runtime exposes, so the probe's fuel is comparable with core.fuel_per_op.
func stubHosts() *vm.HostTable {
	t := vm.NewHostTable()
	stub := func(inst *vm.Instance) *vmStub { return inst.Ctx.(*vmStub) }
	give := func(inst *vm.Instance, data []byte) (int64, error) {
		ptr, err := inst.Alloc(int64(len(data)))
		if err != nil {
			return 0, err
		}
		if err := inst.MemWrite(ptr, data); err != nil {
			return 0, err
		}
		return ptr<<32 | int64(len(data)), nil
	}
	reg := func(name string, nargs int, hasRet bool, cost int64, fn func(inst *vm.Instance, a []int64) (int64, error)) {
		if fn == nil {
			fn = func(*vm.Instance, []int64) (int64, error) { return 0, nil }
		}
		t.Register(vm.HostFunc{Name: name, NArgs: nargs, HasRet: hasRet, Cost: cost, Fn: fn})
	}
	none := func(*vm.Instance, []int64) (int64, error) { return -1, nil }
	reg("self_id", 0, true, 4, func(*vm.Instance, []int64) (int64, error) { return 1, nil })
	reg("arg_count", 0, true, 4, func(inst *vm.Instance, _ []int64) (int64, error) { return int64(len(stub(inst).args)), nil })
	reg("arg", 1, true, 16, func(inst *vm.Instance, a []int64) (int64, error) { return give(inst, stub(inst).args[a[0]]) })
	reg("set_result", 2, false, 16, func(inst *vm.Instance, a []int64) (int64, error) {
		_, err := inst.MemRead(a[0], a[1])
		return 0, err
	})
	reg("time", 0, true, 8, func(*vm.Instance, []int64) (int64, error) { return 1, nil })
	reg("rand", 0, true, 8, nil)
	reg("log", 2, false, 32, nil)
	reg("alloc", 1, true, 8, func(inst *vm.Instance, a []int64) (int64, error) { return inst.Alloc(a[0]) })
	reg("val_get", 2, true, 32, none)
	reg("val_set", 4, false, 48, nil)
	reg("val_del", 2, false, 32, nil)
	reg("map_get", 4, true, 32, none)
	reg("map_set", 6, false, 48, nil)
	reg("map_del", 4, false, 32, nil)
	reg("map_count", 2, true, 128, nil)
	reg("list_len", 2, true, 32, func(inst *vm.Instance, _ []int64) (int64, error) { return stub(inst).listLen, nil })
	reg("list_get", 3, true, 32, func(inst *vm.Instance, _ []int64) (int64, error) { return give(inst, stub(inst).entry) })
	reg("list_push", 4, false, 48, nil)
	reg("call_arg", 2, false, 16, nil)
	reg("invoke", 3, true, 256, none)
	reg("invoke_start", 3, true, 256, nil)
	reg("invoke_wait", 1, true, 64, none)
	return t
}

// stubFor shapes the canned lists after the op: a read walks a timeline of
// seeded entries, a post walks its author's follower list.
func (p *vmProbe) stubFor(in *inputs, o op) *vmStub {
	s := &vmStub{args: in.args(o)}
	if o.kind == opPost {
		s.listLen = int64(len(in.followers[o.obj-1]))
		s.entry = core.I64Bytes(1)
	} else {
		s.listLen = seedPosts
		s.entry = encodeEntry(in.seededPost(o.obj, 0))
	}
	return s
}

// exec runs the op's method and resets the instance for reuse, as the
// runtime's instance pool does between invocations; it returns the fuel
// the call burned.
func (p *vmProbe) exec(o op, s *vmStub) (int64, error) {
	p.inst.Ctx = s
	_, err := p.inst.Call(o.method())
	fuel := p.inst.FuelUsed()
	p.inst.ResetFast(core.DefaultFuel)
	return fuel, err
}

// instantiateUs is the median cost of a cold start: a fresh instance of
// the module, what the pool pays when it has no warm one.
func (p *vmProbe) instantiateUs() (float64, error) {
	var us []float64
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if _, err := vm.NewInstance(p.mod, p.hosts, core.DefaultFuel); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}
