package baseline

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// Load-balancer RPC method names.
const (
	MethodLBInvoke = "lb.invoke"
	MethodLBMirror = "lb.mirror"
)

// LBOptions configures a load balancer.
type LBOptions struct {
	Addr string
	// LogDir persists the request log; the LB durably records every client
	// request before dispatch so a compute-node failure can never lose a
	// response (paper §4.1 — the role Apache Kafka plays in OpenWhisk).
	LogDir string
	// Mirrors are peer load balancers that replicate the request log.
	Mirrors []string
	// Computes are the compute nodes to dispatch to, round-robin.
	Computes []string
	// ClientOptions tunes outbound connections (latency injection).
	ClientOptions *rpc.ClientOptions
}

// LoadBalancer fronts the disaggregated compute layer: it durably logs each
// request, mirrors the log to peers, and dispatches to compute nodes.
type LoadBalancer struct {
	opts LBOptions
	srv  *rpc.Server
	pool *rpc.Pool
	addr string

	logDB  *store.DB
	logSeq atomic.Uint64
	rr     atomic.Uint64

	mu       sync.RWMutex
	computes []string

	dispatched *telemetry.Counter // requests dispatched to compute nodes
}

// StartLB boots a load balancer, publishing its dispatch count in reg (nil
// for none).
func StartLB(opts LBOptions, reg *telemetry.Registry) (*LoadBalancer, error) {
	// The log is not fsynced per append — like the aggregated design's WAL
	// default, for fairness.
	logDB, err := store.Open(opts.LogDir, nil)
	if err != nil {
		return nil, err
	}
	lb := &LoadBalancer{
		opts:     opts,
		srv:      rpc.NewServer(),
		pool:     rpc.NewPool(opts.ClientOptions),
		logDB:    logDB,
		computes: append([]string(nil), opts.Computes...),

		dispatched: reg.Counter("lb.dispatched"),
	}
	lb.srv.Handle(MethodLBInvoke, lb.handleInvoke)
	lb.srv.Handle(MethodLBMirror, lb.handleMirror)
	addr, err := lb.srv.Serve(opts.Addr)
	if err != nil {
		logDB.Close()
		return nil, err
	}
	lb.addr = addr
	return lb, nil
}

// Addr returns the LB's RPC address.
func (lb *LoadBalancer) Addr() string { return lb.addr }

// Close shuts the LB down.
func (lb *LoadBalancer) Close() error {
	lb.srv.Close()
	lb.pool.Close()
	return lb.logDB.Close()
}

// logKey renders a request-log key.
func logKey(seq uint64) []byte {
	var b [12]byte
	b[0], b[1], b[2], b[3] = 'r', 'l', 'o', 'g'
	for i := 0; i < 8; i++ {
		b[4+i] = byte(seq >> (56 - 8*i))
	}
	return b[:]
}

// handleInvoke durably logs the request, mirrors it, and dispatches it.
func (lb *LoadBalancer) handleInvoke(body []byte) ([]byte, error) {
	// 1. Durable local log.
	seq := lb.logSeq.Add(1)
	if err := lb.logDB.Put(logKey(seq), body); err != nil {
		return nil, fmt.Errorf("baseline: lb log: %w", err)
	}
	// 2. Mirror to peer LBs (the log replication Kafka would provide).
	for _, m := range lb.opts.Mirrors {
		var mb []byte
		mb = wire.AppendUvarint(mb, seq)
		mb = wire.AppendBytes(mb, body)
		if _, err := lb.pool.Call(m, MethodLBMirror, mb); err != nil {
			return nil, fmt.Errorf("baseline: lb mirror %s: %w", m, err)
		}
	}
	// 3. Dispatch round-robin.
	lb.mu.RLock()
	computes := lb.computes
	lb.mu.RUnlock()
	if len(computes) == 0 {
		return nil, fmt.Errorf("baseline: no compute nodes")
	}
	target := computes[lb.rr.Add(1)%uint64(len(computes))]
	lb.dispatched.Inc()
	return lb.pool.Call(target, MethodRun, body)
}

// handleMirror appends a peer's log record.
func (lb *LoadBalancer) handleMirror(body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	seq, rec := r.Uvarint(), r.Bytes()
	if err := r.ErrIn("baseline: mirror record"); err != nil {
		return nil, err
	}
	return nil, lb.logDB.Put(logKey(seq), rec)
}

// Client is the application-facing entry point of the disaggregated
// architecture: jobs are submitted to the load balancer. For the paper's
// measured configuration ("clients directly contact the executing node and
// there is no load balancer or frontend"), DirectClient skips the LB.
type Client struct {
	pool *rpc.Pool
	lb   string
}

// NewClient builds a client that submits via the load balancer.
func NewClient(lbAddr string, opts *rpc.ClientOptions) *Client {
	return &Client{pool: rpc.NewPool(opts), lb: lbAddr}
}

// Invoke submits one job.
func (c *Client) Invoke(object uint64, method string, args [][]byte) ([]byte, error) {
	body := encodeJobReq(&jobReq{object: jobObjectID(object), method: method, args: args})
	return c.pool.Call(c.lb, MethodLBInvoke, body)
}

// Close releases connections.
func (c *Client) Close() { c.pool.Close() }

// DirectClient submits jobs straight to one compute node, mirroring the
// paper's evaluation setup where clients contact the executing node
// directly.
type DirectClient struct {
	pool    *rpc.Pool
	compute string
}

// NewDirectClient builds a direct-to-compute client.
func NewDirectClient(computeAddr string, opts *rpc.ClientOptions) *DirectClient {
	return &DirectClient{pool: rpc.NewPool(opts), compute: computeAddr}
}

// Invoke submits one job directly to the compute node.
func (c *DirectClient) Invoke(object uint64, method string, args [][]byte) ([]byte, error) {
	body := encodeJobReq(&jobReq{object: jobObjectID(object), method: method, args: args})
	return c.pool.Call(c.compute, MethodRun, body)
}

// Close releases connections.
func (c *DirectClient) Close() { c.pool.Close() }

// jobObjectID adapts a raw uint64 to the core object ID type.
func jobObjectID(v uint64) core.ObjectID { return core.ObjectID(v) }
