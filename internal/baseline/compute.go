package baseline

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/vm"
	"lambdastore/internal/wire"
)

// Compute RPC method names.
const (
	MethodRun = "compute.run"
)

// jobReq is one function invocation request (client -> LB -> compute).
type jobReq struct {
	object core.ObjectID
	method string
	args   [][]byte
}

func encodeJobReq(r *jobReq) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(r.object))
	b = wire.AppendString(b, r.method)
	b = wire.AppendBytesSlice(b, r.args)
	return b
}

func decodeJobReq(body []byte) (*jobReq, error) {
	r := &jobReq{}
	var obj uint64
	var err error
	if obj, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	r.object = core.ObjectID(obj)
	if r.method, body, err = wire.String(body); err != nil {
		return nil, err
	}
	items, _, err := wire.BytesSlice(body)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		r.args = append(r.args, append([]byte(nil), it...))
	}
	return r, nil
}

// ComputeOptions configures a compute node.
type ComputeOptions struct {
	Addr string
	// Storage is the storage primary's address; every data access of every
	// function goes there over the network.
	Storage string
	// Fuel is the per-invocation budget (same as the aggregated runtime,
	// for fairness).
	Fuel int64
	// DisableWarmPool forces a fresh VM instance per invocation (cold-start
	// emulation for Table 1).
	DisableWarmPool bool
	// ColdStartPenalty emulates container/VM provisioning time on every
	// cold instantiation. Real serverless cold starts are container or
	// microVM boots (hundreds of ms); our in-process instances are microsecond-
	// scale, so Table 1's cold row injects this documented penalty to
	// reproduce the band's shape.
	ColdStartPenalty time.Duration
	// ClientOptions tunes outbound connections (latency injection).
	ClientOptions *rpc.ClientOptions
	// Metrics, if set, receives the node's RPC counters (requests,
	// in-flight, bytes on the wire).
	Metrics *telemetry.Registry
}

// ComputeNode executes guest functions against remote storage. It runs the
// very same modules as LambdaStore under the same VM and fuel budget; only
// the host API implementation differs — every storage operation is an
// individual network round trip, writes apply immediately (no write
// buffering, no invocation atomicity or isolation), and nested invocations
// go back through the load balancer.
type ComputeNode struct {
	opts ComputeOptions
	srv  *rpc.Server
	pool *rpc.Pool
	addr string

	lbMu sync.RWMutex
	lb   string

	hosts *vm.HostTable

	typeMu sync.RWMutex
	types  map[string]*core.ObjectType

	instMu sync.Mutex
	idle   map[*vm.Module][]*vm.Instance

	statsMu     sync.Mutex
	invocations uint64
}

// StartCompute boots a compute node.
func StartCompute(opts ComputeOptions) (*ComputeNode, error) {
	if opts.Fuel == 0 {
		opts.Fuel = core.DefaultFuel
	}
	n := &ComputeNode{
		opts:  opts,
		srv:   rpc.NewServer(),
		pool:  rpc.NewPool(opts.ClientOptions),
		types: make(map[string]*core.ObjectType),
		idle:  make(map[*vm.Module][]*vm.Instance),
	}
	n.hosts = n.buildHostTable()
	if opts.Metrics != nil {
		n.srv.SetTelemetry(opts.Metrics)
		n.pool.SetTelemetry(opts.Metrics)
	}
	n.srv.Handle(MethodRun, func(body []byte) ([]byte, error) {
		req, err := decodeJobReq(body)
		if err != nil {
			return nil, err
		}
		return n.run(req)
	})
	addr, err := n.srv.Serve(opts.Addr)
	if err != nil {
		return nil, err
	}
	n.addr = addr
	return n, nil
}

// Addr returns the node's RPC address.
func (n *ComputeNode) Addr() string { return n.addr }

// SetLoadBalancer wires the LB address used for nested invocations.
func (n *ComputeNode) SetLoadBalancer(addr string) {
	n.lbMu.Lock()
	n.lb = addr
	n.lbMu.Unlock()
}

// Invocations returns how many functions this node executed.
func (n *ComputeNode) Invocations() uint64 {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	return n.invocations
}

// Close shuts the node down.
func (n *ComputeNode) Close() error {
	n.srv.Close()
	n.pool.Close()
	return nil
}

// storageCall sends one operation to the storage primary.
func (n *ComputeNode) storageCall(method string, r *fieldReq) ([]byte, error) {
	return n.pool.Call(n.opts.Storage, method, encodeFieldReq(r))
}

// typeOf resolves (and caches) an object's type: one RPC for the header,
// one for the type record on first sight.
func (n *ComputeNode) typeOf(obj core.ObjectID) (*core.ObjectType, error) {
	resp, err := n.storageCall(MethodHeader, &fieldReq{object: obj})
	if err != nil {
		return nil, err
	}
	nameRaw, present, err := decodePresence(resp)
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, fmt.Errorf("baseline: no such object %s", obj)
	}
	name := string(nameRaw)
	n.typeMu.RLock()
	t, ok := n.types[name]
	n.typeMu.RUnlock()
	if ok {
		return t, nil
	}
	body, err := n.pool.Call(n.opts.Storage, MethodGetType, wire.AppendString(nil, name))
	if err != nil {
		return nil, err
	}
	raw, present, err := decodePresence(body)
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, fmt.Errorf("baseline: no such type %q", name)
	}
	t, err = core.DecodeObjectType(raw)
	if err != nil {
		return nil, err
	}
	n.typeMu.Lock()
	n.types[name] = t
	n.typeMu.Unlock()
	return t, nil
}

// getInstance pops a pooled instance or instantiates a new one.
func (n *ComputeNode) getInstance(mod *vm.Module) (*vm.Instance, error) {
	if !n.opts.DisableWarmPool {
		n.instMu.Lock()
		list := n.idle[mod]
		if len(list) > 0 {
			inst := list[len(list)-1]
			n.idle[mod] = list[:len(list)-1]
			n.instMu.Unlock()
			inst.ResetFast(n.opts.Fuel)
			return inst, nil
		}
		n.instMu.Unlock()
	}
	if n.opts.ColdStartPenalty > 0 {
		time.Sleep(n.opts.ColdStartPenalty)
	}
	return vm.NewInstance(mod, n.hosts, n.opts.Fuel)
}

func (n *ComputeNode) putInstance(mod *vm.Module, inst *vm.Instance) {
	if n.opts.DisableWarmPool {
		return
	}
	inst.Ctx = nil
	n.instMu.Lock()
	if len(n.idle[mod]) < 64 {
		n.idle[mod] = append(n.idle[mod], inst)
	}
	n.instMu.Unlock()
}

// run executes one function invocation.
func (n *ComputeNode) run(req *jobReq) ([]byte, error) {
	n.statsMu.Lock()
	n.invocations++
	n.statsMu.Unlock()

	typ, err := n.typeOf(req.object)
	if err != nil {
		return nil, err
	}
	if _, ok := typ.Method(req.method); !ok {
		return nil, fmt.Errorf("baseline: no method %s.%s", typ.Name, req.method)
	}
	inst, err := n.getInstance(typ.Module)
	if err != nil {
		return nil, err
	}
	ctx := &computeCtx{node: n, obj: req.object, typ: typ, args: req.args}
	inst.Ctx = ctx
	_, callErr := inst.Call(req.method)
	n.putInstance(typ.Module, inst)
	ctx.waitAsyncs()
	if callErr != nil {
		return nil, fmt.Errorf("baseline: %s.%s on %s: %w", typ.Name, req.method, req.object, callErr)
	}
	if err := ctx.asyncErr(); err != nil {
		return nil, err
	}
	return ctx.result, nil
}

// computeCtx is the per-invocation state for the remote host API.
type computeCtx struct {
	node   *ComputeNode
	obj    core.ObjectID
	typ    *core.ObjectType
	args   [][]byte
	result []byte

	pendingArgs [][]byte
	asyncs      []*asyncResult
}

type asyncResult struct {
	done   chan struct{}
	result []byte
	err    error
}

func (c *computeCtx) waitAsyncs() {
	for _, a := range c.asyncs {
		<-a.done
	}
}

func (c *computeCtx) asyncErr() error {
	for _, a := range c.asyncs {
		if a.err != nil {
			return a.err
		}
	}
	return nil
}

// invokeViaLB routes a nested invocation back through the load balancer
// (paper §4.1: "If a lambda function invokes other lambda functions during
// their execution, they will contact the load-balancer again, introducing
// another round of indirection").
func (c *computeCtx) invokeViaLB(target core.ObjectID, method string, args [][]byte) ([]byte, error) {
	c.node.lbMu.RLock()
	lb := c.node.lb
	c.node.lbMu.RUnlock()
	body := encodeJobReq(&jobReq{object: target, method: method, args: args})
	if lb == "" {
		return nil, fmt.Errorf("baseline: no load balancer configured")
	}
	return c.node.pool.Call(lb, MethodLBInvoke, body)
}

// fieldOf validates a field access against the type.
func (c *computeCtx) fieldOf(name []byte, kind core.FieldKind) (string, error) {
	f, ok := c.typ.Field(string(name))
	if !ok {
		return "", fmt.Errorf("baseline: no field %s.%s", c.typ.Name, name)
	}
	if f.Kind != kind {
		return "", fmt.Errorf("baseline: field %s is %v, not %v", f.Name, f.Kind, kind)
	}
	return f.Name, nil
}

var computeRandMu sync.Mutex
var computeRand = rand.New(rand.NewSource(0x0ddba11))

// buildHostTable constructs the remote-storage host API. Names and
// signatures are identical to the aggregated runtime's, so the same guest
// modules run unmodified on both architectures.
func (n *ComputeNode) buildHostTable() *vm.HostTable {
	t := vm.NewHostTable()

	ctxOf := func(inst *vm.Instance) (*computeCtx, error) {
		c, ok := inst.Ctx.(*computeCtx)
		if !ok || c == nil {
			return nil, fmt.Errorf("baseline: host call outside an invocation")
		}
		return c, nil
	}

	reg := func(name string, nargs int, hasRet bool, cost int64,
		fn func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error)) {
		t.Register(vm.HostFunc{
			Name: name, NArgs: nargs, HasRet: hasRet, Cost: cost,
			Fn: func(inst *vm.Instance, a []int64) (int64, error) {
				c, err := ctxOf(inst)
				if err != nil {
					return 0, err
				}
				return fn(c, inst, a)
			},
		})
	}

	alloc := func(inst *vm.Instance, data []byte) (int64, error) {
		ptr, err := inst.Alloc(int64(len(data)))
		if err != nil {
			return 0, err
		}
		if err := inst.MemWrite(ptr, data); err != nil {
			return 0, err
		}
		return ptr<<32 | int64(len(data)), nil
	}

	reg("self_id", 0, true, 4, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		return int64(c.obj), nil
	})
	reg("arg_count", 0, true, 4, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		return int64(len(c.args)), nil
	})
	reg("arg", 1, true, 16, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		if a[0] < 0 || a[0] >= int64(len(c.args)) {
			return 0, fmt.Errorf("baseline: argument index %d out of range", a[0])
		}
		return alloc(inst, c.args[a[0]])
	})
	reg("set_result", 2, false, 16, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		data, err := inst.MemRead(a[0], a[1])
		if err != nil {
			return 0, err
		}
		c.result = data
		return 0, nil
	})
	reg("time", 0, true, 8, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		return time.Now().UnixNano(), nil
	})
	reg("rand", 0, true, 8, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		computeRandMu.Lock()
		defer computeRandMu.Unlock()
		return computeRand.Int63(), nil
	})
	reg("log", 2, false, 32, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		if _, err := inst.MemRead(a[0], a[1]); err != nil {
			return 0, err
		}
		return 0, nil
	})
	t.Register(vm.HostFunc{Name: "alloc", NArgs: 1, HasRet: true, Cost: 8,
		Fn: func(inst *vm.Instance, a []int64) (int64, error) { return inst.Alloc(a[0]) }})

	// readField/writeField helpers produce the remote-op host functions.
	readName := func(inst *vm.Instance, ptr, n int64) ([]byte, error) {
		return inst.MemRead(ptr, n)
	}

	reg("val_get", 2, true, 32, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		name, err := readName(inst, a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := c.fieldOf(name, core.FieldValue)
		if err != nil {
			return 0, err
		}
		resp, err := c.node.storageCall(MethodValGet, &fieldReq{object: c.obj, field: f})
		if err != nil {
			return 0, err
		}
		v, present, err := decodePresence(resp)
		if err != nil {
			return 0, err
		}
		if !present {
			return -1, nil
		}
		return alloc(inst, v)
	})
	reg("val_set", 4, false, 48, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		name, err := readName(inst, a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := c.fieldOf(name, core.FieldValue)
		if err != nil {
			return 0, err
		}
		v, err := inst.MemRead(a[2], a[3])
		if err != nil {
			return 0, err
		}
		_, err = c.node.storageCall(MethodValSet, &fieldReq{object: c.obj, field: f, value: v})
		return 0, err
	})
	reg("val_del", 2, false, 32, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		name, err := readName(inst, a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := c.fieldOf(name, core.FieldValue)
		if err != nil {
			return 0, err
		}
		_, err = c.node.storageCall(MethodValDel, &fieldReq{object: c.obj, field: f})
		return 0, err
	})
	reg("map_get", 4, true, 32, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		name, err := readName(inst, a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := c.fieldOf(name, core.FieldMap)
		if err != nil {
			return 0, err
		}
		key, err := inst.MemRead(a[2], a[3])
		if err != nil {
			return 0, err
		}
		resp, err := c.node.storageCall(MethodMapGet, &fieldReq{object: c.obj, field: f, key: key})
		if err != nil {
			return 0, err
		}
		v, present, err := decodePresence(resp)
		if err != nil {
			return 0, err
		}
		if !present {
			return -1, nil
		}
		return alloc(inst, v)
	})
	reg("map_set", 6, false, 48, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		name, err := readName(inst, a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := c.fieldOf(name, core.FieldMap)
		if err != nil {
			return 0, err
		}
		key, err := inst.MemRead(a[2], a[3])
		if err != nil {
			return 0, err
		}
		v, err := inst.MemRead(a[4], a[5])
		if err != nil {
			return 0, err
		}
		_, err = c.node.storageCall(MethodMapSet, &fieldReq{object: c.obj, field: f, key: key, value: v})
		return 0, err
	})
	reg("map_del", 4, false, 32, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		name, err := readName(inst, a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := c.fieldOf(name, core.FieldMap)
		if err != nil {
			return 0, err
		}
		key, err := inst.MemRead(a[2], a[3])
		if err != nil {
			return 0, err
		}
		_, err = c.node.storageCall(MethodMapDel, &fieldReq{object: c.obj, field: f, key: key})
		return 0, err
	})
	reg("map_count", 2, true, 128, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		name, err := readName(inst, a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := c.fieldOf(name, core.FieldMap)
		if err != nil {
			return 0, err
		}
		resp, err := c.node.storageCall(MethodMapCount, &fieldReq{object: c.obj, field: f})
		if err != nil {
			return 0, err
		}
		return int64(core.DecodeU64(resp)), nil
	})
	reg("list_len", 2, true, 32, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		name, err := readName(inst, a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := c.fieldOf(name, core.FieldList)
		if err != nil {
			return 0, err
		}
		resp, err := c.node.storageCall(MethodListLen, &fieldReq{object: c.obj, field: f})
		if err != nil {
			return 0, err
		}
		return int64(core.DecodeU64(resp)), nil
	})
	reg("list_get", 3, true, 32, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		name, err := readName(inst, a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := c.fieldOf(name, core.FieldList)
		if err != nil {
			return 0, err
		}
		if a[2] < 0 {
			return -1, nil
		}
		resp, err := c.node.storageCall(MethodListGet, &fieldReq{object: c.obj, field: f, idx: uint64(a[2])})
		if err != nil {
			return 0, err
		}
		v, present, err := decodePresence(resp)
		if err != nil {
			return 0, err
		}
		if !present {
			return -1, nil
		}
		return alloc(inst, v)
	})
	reg("list_push", 4, false, 48, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		name, err := readName(inst, a[0], a[1])
		if err != nil {
			return 0, err
		}
		f, err := c.fieldOf(name, core.FieldList)
		if err != nil {
			return 0, err
		}
		v, err := inst.MemRead(a[2], a[3])
		if err != nil {
			return 0, err
		}
		_, err = c.node.storageCall(MethodListPush, &fieldReq{object: c.obj, field: f, value: v})
		return 0, err
	})

	reg("call_arg", 2, false, 16, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		data, err := inst.MemRead(a[0], a[1])
		if err != nil {
			return 0, err
		}
		c.pendingArgs = append(c.pendingArgs, data)
		return 0, nil
	})
	reg("invoke", 3, true, 256, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		method, err := inst.MemRead(a[1], a[2])
		if err != nil {
			return 0, err
		}
		args := c.pendingArgs
		c.pendingArgs = nil
		result, err := c.invokeViaLB(core.ObjectID(a[0]), string(method), args)
		if err != nil {
			return 0, err
		}
		return alloc(inst, result)
	})
	reg("invoke_start", 3, true, 256, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		method, err := inst.MemRead(a[1], a[2])
		if err != nil {
			return 0, err
		}
		args := c.pendingArgs
		c.pendingArgs = nil
		ar := &asyncResult{done: make(chan struct{})}
		c.asyncs = append(c.asyncs, ar)
		target := core.ObjectID(a[0])
		m := string(method)
		go func() {
			defer close(ar.done)
			ar.result, ar.err = c.invokeViaLB(target, m, args)
		}()
		return int64(len(c.asyncs) - 1), nil
	})
	reg("invoke_wait", 1, true, 64, func(c *computeCtx, inst *vm.Instance, a []int64) (int64, error) {
		if a[0] < 0 || a[0] >= int64(len(c.asyncs)) {
			return 0, fmt.Errorf("baseline: bad async handle %d", a[0])
		}
		ar := c.asyncs[a[0]]
		<-ar.done
		if ar.err != nil {
			return 0, ar.err
		}
		return alloc(inst, ar.result)
	})

	return t
}
