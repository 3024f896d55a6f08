package core

import (
	"fmt"
	"sync"
	"time"

	"lambdastore/internal/telemetry"
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

// InstancePool recycles VM instances per (module, method) and runs guest
// methods on them against the one host table (hostapi.go). A warm
// invocation pops a pooled instance and resets it with the cheap
// dirty-region reset (vm.ResetFast), while a cold one pays full
// instantiation. The distinction mirrors serverless warm vs cold starts
// (§2.1), and the pool exports counters so the Table-1 benchmark can
// report both paths. The Runtime owns one; the disaggregated baseline's
// compute node owns another and supplies its own Backend.
type InstancePool struct {
	mu   sync.Mutex
	idle map[poolKey][]*vm.Instance
	fuel int64

	tracer   *telemetry.Tracer
	warm     *telemetry.Counter // instance starts served from the pool
	cold     *telemetry.Counter // instance starts that paid instantiation
	vmExecUs *telemetry.Histogram
	fuelUsed *telemetry.Counter
}

// NewInstancePool returns an empty pool whose instances get fuel per call.
// Its start counts, guest execution time and fuel are published in reg, and
// each guest call records a vm-exec span in tracer; either may be nil.
func NewInstancePool(fuel int64, reg *telemetry.Registry, tracer *telemetry.Tracer) *InstancePool {
	vm.RegisterMetrics(reg)
	return &InstancePool{
		idle: make(map[poolKey][]*vm.Instance), fuel: fuel, tracer: tracer,
		warm:     reg.Counter("core.pool_warm"),
		cold:     reg.Counter("core.pool_cold"),
		vmExecUs: reg.Histogram("core.vm_exec"),
		fuelUsed: reg.Counter("core.fuel_used"),
	}
}

// Run executes one method of an object of type typ against be and returns
// what the guest passed to set_result.
func (p *InstancePool) Run(be Backend, obj ObjectID, typ *ObjectType, method string, args [][]byte) ([]byte, error) {
	mi, ok := typ.Method(method)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, typ.Name, method)
	}
	g := &guest{be: be, obj: obj, typ: typ, method: mi, args: args}
	if err := p.exec(g, telemetry.SpanContext{}); err != nil {
		return nil, err
	}
	return g.result, nil
}

// exec runs g's method body in a pooled instance and joins its parallel
// calls, so goroutines never outlive the invocation.
func (p *InstancePool) exec(g *guest, trace telemetry.SpanContext) error {
	inst, err := p.get(g.typ.Module, g.method.Name)
	if err != nil {
		return err
	}
	inst.Ctx = g
	sp := p.tracer.StartSpan(trace, "vm-exec")
	start := time.Now()
	fuelBefore := inst.FuelUsed()
	_, callErr := inst.Call(g.method.Name)
	p.vmExecUs.Record(time.Since(start))
	if d := inst.FuelUsed() - fuelBefore; d > 0 {
		p.fuelUsed.Add(uint64(d))
	}
	sp.FinishErr(callErr)
	p.put(g.typ.Module, g.method.Name, inst)
	g.waitAsyncs()

	if callErr != nil {
		return fmt.Errorf("core: %s.%s on %s: %w", g.typ.Name, g.method.Name, g.obj, callErr)
	}
	if err := g.asyncErr(); err != nil {
		return fmt.Errorf("core: %s.%s on %s: parallel call: %w", g.typ.Name, g.method.Name, g.obj, err)
	}
	return nil
}

// get returns a ready instance for (module, method).
func (p *InstancePool) get(module *vm.Module, method string) (*vm.Instance, error) {
	k := poolKey{module: module, method: method}
	p.mu.Lock()
	list := p.idle[k]
	if n := len(list); n > 0 {
		inst := list[n-1]
		p.idle[k] = list[:n-1]
		p.mu.Unlock()
		p.warm.Inc()
		inst.ResetFast(p.fuel)
		return inst, nil
	}
	p.mu.Unlock()
	p.cold.Inc()
	return vm.NewInstance(module, hostTable, p.fuel)
}

// put returns an instance for reuse.
func (p *InstancePool) put(module *vm.Module, method string, inst *vm.Instance) {
	inst.Ctx = nil
	k := poolKey{module: module, method: method}
	p.mu.Lock()
	defer p.mu.Unlock()
	const maxIdlePerMethod = 64
	if len(p.idle[k]) < maxIdlePerMethod {
		p.idle[k] = append(p.idle[k], inst)
	}
}

// Stats returns (warm, cold) start counts.
func (p *InstancePool) Stats() (warm, cold uint64) { return p.warm.Value(), p.cold.Value() }

// drop empties every method lane of module (used when a type is replaced).
func (p *InstancePool) drop(module *vm.Module) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.idle {
		if k.module == module {
			delete(p.idle, k)
		}
	}
}
