package baseline

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/telemetry"
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
	r := wire.NewReader(body)
	q := &jobReq{object: core.ObjectID(r.Uvarint()), method: r.Str(), args: r.BytesSliceCopy()}
	return q, r.ErrIn("baseline: job request")
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
	// ColdStartPenalty, when set, makes every invocation a cold start: a
	// fresh VM instance (nothing is kept warm) after this much emulated
	// container/VM provisioning time. Real serverless cold starts are
	// container or microVM boots (hundreds of ms); our in-process instances
	// are microsecond-scale, so Table 1's cold row injects this documented
	// penalty to reproduce the band's shape.
	ColdStartPenalty time.Duration
	// ClientOptions tunes outbound connections (latency injection).
	ClientOptions *rpc.ClientOptions
	// Metrics, if set, publishes the node's RPC counters (requests,
	// in-flight, bytes on the wire) and its warm pool's.
	Metrics *telemetry.Registry
}

// ComputeNode executes guest functions against remote storage. It runs the
// very same modules as LambdaStore in the same VM, through the same guest
// ABI and warm pool (core.InstancePool) and under the same fuel budget; only
// the core.Backend behind the ABI differs — every storage operation is an
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

	typeMu sync.RWMutex
	types  map[string]*core.ObjectType

	vms *core.InstancePool
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
		vms:   core.NewInstancePool(opts.Fuel, opts.Metrics, nil),
	}
	n.srv.SetTelemetry(opts.Metrics)
	n.pool.SetTelemetry(opts.Metrics)
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

// PoolStats returns (warm, cold) instance-start counts of the warm pool.
func (n *ComputeNode) PoolStats() (warm, cold uint64) { return n.vms.Stats() }

// Close shuts the node down.
func (n *ComputeNode) Close() error {
	n.srv.Close()
	n.pool.Close()
	return nil
}

// typeOf resolves (and caches) an object's type: one RPC for the header,
// one for the type record on first sight.
func (n *ComputeNode) typeOf(obj core.ObjectID) (*core.ObjectType, error) {
	resp, err := n.pool.Call(n.opts.Storage, MethodHeader, encodeFieldReq(&fieldReq{object: obj}))
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

// run executes one function invocation.
func (n *ComputeNode) run(req *jobReq) ([]byte, error) {
	typ, err := n.typeOf(req.object)
	if err != nil {
		return nil, err
	}
	vms := n.vms
	if n.opts.ColdStartPenalty > 0 {
		// A cold start is a run on an empty pool, after the provisioning
		// time has passed.
		time.Sleep(n.opts.ColdStartPenalty)
		vms = core.NewInstancePool(n.opts.Fuel, nil, nil)
	}
	return vms.Run(&remoteState{node: n, obj: req.object}, req.object, typ, req.method, req.args)
}

// remoteState is one job's core.Backend: the object's state is wherever the
// storage primary keeps it, one RPC per operation applied at once, and a
// nested call is a new job submitted to the load balancer. Nothing is
// buffered, so nothing is atomic or isolated beyond the single operation.
type remoteState struct {
	node *ComputeNode
	obj  core.ObjectID
}

// The storage operation behind a read, write or delete of each field kind.
var (
	getOps = [...]string{core.FieldValue: MethodValGet, core.FieldMap: MethodMapGet, core.FieldList: MethodListGet}
	putOps = [...]string{core.FieldValue: MethodValSet, core.FieldMap: MethodMapSet}
	delOps = [...]string{core.FieldValue: MethodValDel, core.FieldMap: MethodMapDel}
)

// call sends one operation on field f to the storage primary. key and value
// may be views of guest memory: the request body is encoded before call
// returns to the guest.
func (c *remoteState) call(op string, f *core.FieldDef, key, value []byte, idx uint64) ([]byte, error) {
	return c.node.pool.Call(c.node.opts.Storage, op,
		encodeFieldReq(&fieldReq{object: c.obj, field: f.Name, key: key, value: value, idx: idx}))
}

func (c *remoteState) Now() int64  { return time.Now().UnixNano() }
func (c *remoteState) Rand() int64 { return rand.Int63() }

func (c *remoteState) Get(f *core.FieldDef, key []byte, idx uint64) ([]byte, bool, error) {
	resp, err := c.call(getOps[f.Kind], f, key, nil, idx)
	if err != nil {
		return nil, false, err
	}
	return decodePresence(resp)
}

func (c *remoteState) Put(f *core.FieldDef, key, value []byte) error {
	_, err := c.call(putOps[f.Kind], f, key, value, 0)
	return err
}

func (c *remoteState) Del(f *core.FieldDef, key []byte) error {
	_, err := c.call(delOps[f.Kind], f, key, nil, 0)
	return err
}

func (c *remoteState) Count(f *core.FieldDef) (int64, error) {
	resp, err := c.call(MethodMapCount, f, nil, nil, 0)
	return int64(core.DecodeU64(resp)), err
}

func (c *remoteState) ListLen(f *core.FieldDef) (int64, error) {
	resp, err := c.call(MethodListLen, f, nil, nil, 0)
	return int64(core.DecodeU64(resp)), err
}

func (c *remoteState) ListPush(f *core.FieldDef, value []byte) error {
	_, err := c.call(MethodListPush, f, nil, value, 0)
	return err
}

// BeginCall has nothing to commit or release: every write already applied.
func (c *remoteState) BeginCall() error { return nil }

// Dispatch routes a nested invocation back through the load balancer
// (paper §4.1: "If a lambda function invokes other lambda functions during
// their execution, they will contact the load-balancer again, introducing
// another round of indirection").
func (c *remoteState) Dispatch(target core.ObjectID, method string, args [][]byte) ([]byte, error) {
	c.node.lbMu.RLock()
	lb := c.node.lb
	c.node.lbMu.RUnlock()
	if lb == "" {
		return nil, fmt.Errorf("baseline: no load balancer configured")
	}
	return c.node.pool.Call(lb, MethodLBInvoke, encodeJobReq(&jobReq{object: target, method: method, args: args}))
}
