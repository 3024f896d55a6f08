package core

import (
	"sync"

	"lambdastore/internal/vm"
)

// poolKey identifies one warm-instance lane: instances are pooled per
// (module, method) rather than per module, so a method's working set —
// allocation high-water mark, grown memory — is recycled by invocations
// with the same footprint and the cheap reset zeroes exactly what that
// method dirties.
type poolKey struct {
	module *vm.Module
	method string
}

// instancePool recycles VM instances per (module, method). A warm
// invocation pops a pooled instance and resets it with the cheap
// dirty-region reset (vm.ResetFast), while a cold one pays full
// instantiation. The distinction mirrors serverless warm vs cold starts
// (§2.1), and the pool exports counters so the Table-1 benchmark can
// report both paths.
type instancePool struct {
	mu    sync.Mutex
	idle  map[poolKey][]*vm.Instance
	hosts *vm.HostTable
	fuel  int64

	warm uint64
	cold uint64
}

func newInstancePool(hosts *vm.HostTable, fuel int64) *instancePool {
	return &instancePool{
		idle:  make(map[poolKey][]*vm.Instance),
		hosts: hosts,
		fuel:  fuel,
	}
}

// get returns a ready instance for (module, method).
func (p *instancePool) get(module *vm.Module, method string) (*vm.Instance, error) {
	k := poolKey{module: module, method: method}
	p.mu.Lock()
	list := p.idle[k]
	if n := len(list); n > 0 {
		inst := list[n-1]
		p.idle[k] = list[:n-1]
		p.warm++
		p.mu.Unlock()
		inst.ResetFast(p.fuel)
		return inst, nil
	}
	p.cold++
	p.mu.Unlock()
	return vm.NewInstance(module, p.hosts, p.fuel)
}

// put returns an instance for reuse.
func (p *instancePool) put(module *vm.Module, method string, inst *vm.Instance) {
	inst.Ctx = nil
	k := poolKey{module: module, method: method}
	p.mu.Lock()
	defer p.mu.Unlock()
	const maxIdlePerMethod = 64
	if len(p.idle[k]) < maxIdlePerMethod {
		p.idle[k] = append(p.idle[k], inst)
	}
}

// stats returns (warm, cold) start counts.
func (p *instancePool) stats() (warm, cold uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.warm, p.cold
}

// drop empties every method lane of module (used when a type is replaced).
func (p *instancePool) drop(module *vm.Module) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.idle {
		if k.module == module {
			delete(p.idle, k)
		}
	}
}
