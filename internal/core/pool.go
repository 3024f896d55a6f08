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

// lane is one (module, method)'s idle instances. The first is held
// outright, so a method that has run once on a node starts warm however
// long the node then sits idle. The rest — one per invocation that ran
// concurrently with another of the same method — wait in a sync.Pool:
// reused while load keeps them busy, reclaimed by the collector once a
// burst has passed. What an idle node retains is therefore one instance
// per method it has run, not as many as its busiest moment ran at once.
type lane struct {
	first *vm.Instance
	spare sync.Pool // *vm.Instance
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
	mu    sync.Mutex
	lanes map[poolKey]*lane
	fuel  int64

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
		lanes: make(map[poolKey]*lane), fuel: fuel, tracer: tracer,
		warm:     reg.Counter("core.pool_warm"),
		cold:     reg.Counter("core.pool_cold"),
		vmExecUs: reg.Histogram("core.vm_exec"),
		fuelUsed: reg.Counter("core.fuel_used"),
	}
}

// Run executes one method of an object of type typ against be and returns
// dst with what the guest passed to set_result appended: the result's one
// copy out of the pooled guest, into memory the caller lends.
func (p *InstancePool) Run(dst []byte, be Backend, obj ObjectID, typ *ObjectType, method string, args [][]byte) ([]byte, error) {
	mi, ok := typ.Method(method)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, typ.Name, method)
	}
	g := guestPool.Get().(*guest)
	g.bind(be, obj, typ, mi, args)
	err := p.exec(g, telemetry.SpanContext{})
	if err == nil {
		dst = append(dst, g.result...)
	}
	g.reset()
	guestPool.Put(g)
	if err != nil {
		return nil, err
	}
	return dst, nil
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
	l := p.lanes[k]
	if l == nil {
		l = new(lane)
		p.lanes[k] = l
	}
	inst := l.first
	l.first = nil
	p.mu.Unlock()
	if inst == nil {
		inst, _ = l.spare.Get().(*vm.Instance)
	}
	if inst == nil {
		p.cold.Inc()
		return vm.NewInstance(module, hostTable, p.fuel)
	}
	p.warm.Inc()
	inst.ResetFast(p.fuel)
	return inst, nil
}

// put returns an instance for reuse. An instance whose lane was dropped
// while it ran is discarded.
func (p *InstancePool) put(module *vm.Module, method string, inst *vm.Instance) {
	inst.Ctx = nil
	k := poolKey{module: module, method: method}
	p.mu.Lock()
	l := p.lanes[k]
	if l != nil && l.first == nil {
		l.first = inst
		l = nil
	}
	p.mu.Unlock()
	if l != nil {
		l.spare.Put(inst)
	}
}

// Stats returns (warm, cold) start counts.
func (p *InstancePool) Stats() (warm, cold uint64) { return p.warm.Value(), p.cold.Value() }

// drop empties every method lane of module (used when a type is replaced).
func (p *InstancePool) drop(module *vm.Module) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.lanes {
		if k.module == module {
			delete(p.lanes, k)
		}
	}
}
