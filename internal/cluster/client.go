package cluster

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"lambdastore/internal/admission"
	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// Client is the application-facing library: it resolves objects to their
// replica group, sends invocations to the responsible node, and retries
// through configuration changes. Mutating invocations go to the primary;
// explicitly read-only invocations are spread across replicas.
type Client struct {
	pool  *rpc.Pool
	coord *coordinator.Client

	dir atomic.Pointer[shard.Directory]

	readPolicy ReadPolicy
	rr         atomic.Uint64 // round-robin cursor for replica reads

	// maxRetries bounds routing retries after stale-config rejections;
	// retryBase/retryMax shape the capped exponential backoff between
	// retries; retryBudget bounds one call's total retry time (sleeps
	// included) so a dead cluster fails the call rather than hanging it.
	maxRetries  int
	retryBase   time.Duration
	retryMax    time.Duration
	retryBudget time.Duration

	// tracing mints a fresh trace ID per invocation; the receiving nodes
	// decide whether spans are actually recorded.
	tracing bool

	// overloadRetries counts invocations that were shed by a node's
	// admission plane and retried with backoff — kept separate from
	// routing/fault retries so overload is visible as overload.
	overloadRetries atomic.Uint64
}

// ReadPolicy selects which replica serves a read-only invocation. With
// leases enabled, every choice returns committed-then-acked state: backups
// only answer while holding a valid lease and bounce otherwise, so policies
// trade load spreading against bounce-retry latency, never consistency.
type ReadPolicy int

const (
	// ReadRoundRobin spreads reads across all replicas in turn (default).
	ReadRoundRobin ReadPolicy = iota
	// ReadPrimaryOnly sends every read to the primary — the pre-lease
	// behavior, and the baseline for read scale-out benchmarks.
	ReadPrimaryOnly
)

// ClientConfig configures a Client.
type ClientConfig struct {
	// Directory is a static configuration (benchmarks, tests).
	Directory *shard.Directory
	// Coordinators enables dynamic configuration refresh.
	Coordinators []string
	// RPC tunes outbound connections (latency injection, timeouts).
	RPC *rpc.ClientOptions
	// MaxRetries bounds routing retries (default 4).
	MaxRetries int
	// RetryBaseDelay is the backoff before the first retry (default 5ms);
	// each subsequent retry doubles it, with ±50% jitter so a fleet of
	// clients does not stampede a freshly promoted primary in lockstep.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the exponential growth (default 250ms).
	RetryMaxDelay time.Duration
	// RetryBudget bounds the total time one call may spend retrying,
	// backoff sleeps included (default 10s). It acts as the call's
	// deadline: when it expires the call returns the last error even if
	// retry attempts remain.
	RetryBudget time.Duration
	// Tracing stamps every invocation with a fresh trace ID so nodes with
	// tracing enabled record its spans.
	Tracing bool
	// ReadPolicy selects the replica for read-only invocations
	// (default ReadRoundRobin).
	ReadPolicy ReadPolicy
}

// NewClient builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	c := &Client{
		pool:        rpc.NewPool(cfg.RPC),
		maxRetries:  cfg.MaxRetries,
		retryBase:   cfg.RetryBaseDelay,
		retryMax:    cfg.RetryMaxDelay,
		retryBudget: cfg.RetryBudget,
		tracing:     cfg.Tracing,
		readPolicy:  cfg.ReadPolicy,
	}
	if c.maxRetries <= 0 {
		c.maxRetries = 4
	}
	if c.retryBase <= 0 {
		c.retryBase = 5 * time.Millisecond
	}
	if c.retryMax <= 0 {
		c.retryMax = 250 * time.Millisecond
	}
	if c.retryBudget <= 0 {
		c.retryBudget = 10 * time.Second
	}
	if len(cfg.Coordinators) > 0 {
		c.coord = coordinator.NewClient(c.pool, cfg.Coordinators)
	}
	c.dir.Store(cfg.Directory)
	if cfg.Directory == nil {
		if c.coord == nil {
			return nil, fmt.Errorf("cluster: client needs a directory or coordinators")
		}
		d, err := c.coord.GetConfig()
		if err != nil {
			return nil, err
		}
		c.dir.Store(d)
	}
	return c, nil
}

// Close releases the client's connections.
func (c *Client) Close() { c.pool.Close() }

// OverloadRetries reports how many times this client's invocations were
// shed by a node's admission plane and retried.
func (c *Client) OverloadRetries() uint64 { return c.overloadRetries.Load() }

// Directory returns the client's current configuration view.
func (c *Client) Directory() *shard.Directory { return c.dir.Load() }

// SetDirectory installs a configuration view (static reconfiguration).
func (c *Client) SetDirectory(d *shard.Directory) { c.dir.Store(d) }

// refresh pulls a fresh configuration from the coordinator, if any.
func (c *Client) refresh() bool {
	if c.coord == nil {
		return false
	}
	d, err := c.coord.GetConfig()
	if err != nil {
		return false
	}
	c.SetDirectory(d)
	return true
}

// backoff sleeps before retry attempt (1-based): exponential from
// RetryBaseDelay, capped at RetryMaxDelay, with ±50% jitter so
// concurrent clients decorrelate instead of stampeding a recovering
// primary in lockstep. The sleep never runs past deadline; it returns
// false once the deadline has passed, telling the caller to give up.
func (c *Client) backoff(attempt int, deadline time.Time) bool {
	rem := time.Until(deadline)
	if rem <= 0 {
		return false
	}
	d := c.retryBase << uint(attempt-1)
	if d <= 0 || d > c.retryMax {
		d = c.retryMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // jitter in [d/2, 3d/2)
	if d > rem {
		d = rem
	}
	time.Sleep(d)
	return true
}

// lookup resolves the group for an object.
func (c *Client) lookup(id core.ObjectID) (shard.Group, error) {
	return c.Directory().Lookup(uint64(id))
}

// rootCtx mints the invocation's trace context (zero when tracing is off).
func (c *Client) rootCtx() telemetry.SpanContext {
	if !c.tracing {
		return telemetry.SpanContext{}
	}
	return telemetry.NewRootContext()
}

// Invoke runs a (potentially mutating) method at the object's primary.
func (c *Client) Invoke(id core.ObjectID, method string, args [][]byte) ([]byte, error) {
	return c.invoke(c.rootCtx(), id, method, args, false)
}

// InvokeTraced is Invoke under a freshly minted trace; it returns the trace
// ID so the caller can fetch the request's spans from the nodes' /traces
// endpoints (regardless of the client's Tracing setting).
func (c *Client) InvokeTraced(id core.ObjectID, method string, args [][]byte) ([]byte, uint64, error) {
	ctx := telemetry.NewRootContext()
	resp, err := c.invoke(ctx, id, method, args, false)
	return resp, ctx.Trace, err
}

// InvokeRead runs a read-only method at one of the object's replicas,
// spreading load round-robin. The server rejects the request if the method
// is not actually read-only for routing purposes (backups refuse writes).
func (c *Client) InvokeRead(id core.ObjectID, method string, args [][]byte) ([]byte, error) {
	return c.invoke(c.rootCtx(), id, method, args, true)
}

// readTarget picks the replica for a read-only invocation per the
// configured policy.
func (c *Client) readTarget(g shard.Group) string {
	if c.readPolicy == ReadPrimaryOnly {
		return g.Primary
	}
	// Index primary + backups in place: no replica slice per read.
	if i := c.rr.Add(1) % uint64(1+len(g.Backups)); i > 0 {
		return g.Backups[i-1]
	}
	return g.Primary
}

// send is the client's one retry loop, and so the definition of its
// at-least-once semantics: every attempt re-resolves the group with route
// (the view may have changed), sends the same frame to its primary — or,
// read-only, to the replica the read policy picks — and classifies a
// failure as a stale view, an overload shed, or a connection-level fault.
// Retries are bounded by MaxRetries and RetryBudget; a routing error and a
// write's connection failure without a coordinator return at once.
func (c *Client) send(ctx telemetry.SpanContext, method string, body []byte, readOnly bool, route func() (shard.Group, error)) ([]byte, error) {
	deadline := time.Now().Add(c.retryBudget)
	var lastErr error
	for attempt := 0; attempt < c.maxRetries; attempt++ {
		if attempt > 0 && !c.backoff(attempt, deadline) {
			break
		}
		g, err := route()
		if err != nil {
			return nil, err
		}
		addr := g.Primary
		if readOnly {
			addr = c.readTarget(g)
		}
		resp, err := c.pool.CallCtx(addr, ctx, method, body)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if hint, ok := ParseNotResponsible(err); ok {
			// Stale configuration: try the hinted primary directly next.
			if !c.refresh() && hint != "" {
				resp, err := c.pool.CallCtx(hint, ctx, method, body)
				if err == nil {
					return resp, nil
				}
				lastErr = err
			}
			continue
		}
		// Overload shed: the node's admission plane refused the request
		// before execution. The configuration is fine — just back off and
		// retry; the capped exponential backoff is exactly the client-side
		// half of the congestion-control loop.
		if admission.IsOverload(err) {
			c.overloadRetries.Add(1)
			continue
		}
		// Connection-level failure: the node may have died; refresh config
		// (failover may have promoted a backup) and retry after backoff.
		// Without a coordinator the view cannot change, so a write fails;
		// a read still fails over to the next replica via rr.
		if !c.refresh() && !readOnly {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("cluster: %s failed after retries: %w", method, lastErr)
}

func (c *Client) invoke(ctx telemetry.SpanContext, id core.ObjectID, method string, args [][]byte, readOnly bool) ([]byte, error) {
	body := encodeInvokeReq(&invokeReq{object: id, method: method, args: args, readOnly: readOnly})
	return c.send(ctx, MethodInvoke, body, readOnly, func() (shard.Group, error) { return c.lookup(id) })
}

// InvokeTransaction executes a serializable multi-call transaction
// (strict 2PL over the declared objects). All objects must be homed in the
// same replica group; the request is routed to that group's primary.
func (c *Client) InvokeTransaction(calls []core.TxCall) ([][]byte, error) {
	if len(calls) == 0 {
		return nil, nil
	}
	resp, err := c.send(c.rootCtx(), MethodInvokeTx, encodeTxReq(&txReq{calls: calls}), false, func() (shard.Group, error) {
		g, err := c.lookup(calls[0].Object)
		if err != nil {
			return g, err
		}
		for _, call := range calls[1:] {
			cg, err := c.lookup(call.Object)
			if err != nil {
				return g, err
			}
			if cg.ID != g.ID {
				return g, fmt.Errorf("cluster: transaction spans groups %d and %d (objects must share a replica group)", g.ID, cg.ID)
			}
		}
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	return decodeTxResp(resp)
}

// CreateObject instantiates an object at its primary.
func (c *Client) CreateObject(typeName string, id core.ObjectID) error {
	body := encodeCreateReq(&createReq{object: id, typeName: typeName})
	_, err := c.send(c.rootCtx(), MethodCreate, body, false, func() (shard.Group, error) { return c.lookup(id) })
	return err
}

// DeleteObject removes an object and all its state at its primary.
func (c *Client) DeleteObject(id core.ObjectID) error {
	body := wire.AppendUvarint(nil, uint64(id))
	_, err := c.send(c.rootCtx(), MethodDelete, body, false, func() (shard.Group, error) { return c.lookup(id) })
	return err
}

// RegisterType installs a type on every node of every group (code deploy).
func (c *Client) RegisterType(t *core.ObjectType) error {
	body := t.Encode()
	seen := map[string]bool{}
	for _, g := range c.Directory().Groups() {
		for _, addr := range g.Replicas() {
			if seen[addr] {
				continue
			}
			seen[addr] = true
			if _, err := c.pool.Call(addr, MethodRegisterType, body); err != nil {
				return fmt.Errorf("cluster: register type at %s: %w", addr, err)
			}
		}
	}
	return nil
}

// Migrate moves an object to the given group via its current primary.
func (c *Client) Migrate(id core.ObjectID, destGroup uint64) error {
	// A bootstrap directory (static config file) knows nothing about
	// overrides installed by earlier migrations, so the "already there"
	// check below would silently no-op a real move. Resolve the object's
	// current primary against the coordinator's view when there is one.
	c.refresh()
	g, err := c.lookup(id)
	if err != nil {
		return err
	}
	dest, found := c.Directory().Group(destGroup)
	if !found {
		return fmt.Errorf("cluster: no group %d", destGroup)
	}
	if g.ID == destGroup {
		return nil
	}
	if err := MoveObject(c.pool, g.Primary, uint64(id), dest.Primary, destGroup); err != nil {
		return err
	}
	// Keep the local view coherent for subsequent calls. A move back to
	// the object's hash home clears the override, mirroring the cutover.
	d := c.Directory()
	if home, herr := d.DefaultGroupID(uint64(id)); herr == nil && home == destGroup {
		d.ClearOverride(uint64(id))
	} else {
		d.SetOverride(uint64(id), destGroup)
	}
	return nil
}

// Stats fetches a node's metrics snapshot — the JSON its /metrics.json debug
// endpoint serves (a telemetry.RegistrySnapshot) — over the node's RPC port.
func (c *Client) Stats(addr string) ([]byte, error) {
	return c.pool.Call(addr, MethodStats, nil)
}
