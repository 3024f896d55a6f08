package cluster

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

// Client is the application-facing library: it resolves objects to their
// replica group, sends invocations to the responsible node, and retries
// through configuration changes. Mutating invocations go to the primary;
// explicitly read-only invocations are spread across replicas.
type Client struct {
	pool  *rpc.Pool
	coord *coordinator.Client

	dir atomic.Pointer[shard.Directory]

	// maxRetries bounds routing retries after stale-config rejections;
	// retryBase/retryMax shape the capped exponential backoff between
	// retries; retryBudget bounds one call's total retry time (sleeps
	// included) so a dead cluster fails the call rather than hanging it.
	maxRetries  int
	retryBase   time.Duration
	retryMax    time.Duration
	retryBudget time.Duration
}

// ClientConfig configures a Client.
type ClientConfig struct {
	// Directory is a fixed view, the seam through which a client of a group
	// booted by hand with no coordinator (the frozen benchmark's) and tests
	// route; nil fetches the view from Coordinators.
	Directory *shard.Directory
	// Coordinators is where the client refreshes its view.
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
}

// NewClient builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	c := &Client{
		pool:        rpc.NewPool(cfg.RPC),
		maxRetries:  cfg.MaxRetries,
		retryBase:   cfg.RetryBaseDelay,
		retryMax:    cfg.RetryMaxDelay,
		retryBudget: cfg.RetryBudget,
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

// Directory returns the client's current configuration view.
func (c *Client) Directory() *shard.Directory { return c.dir.Load() }

// refresh pulls a fresh configuration from the coordinator, if any, and
// installs it only if it is newer than the view held: a lagging coordinator
// replica's view, or one at the held epoch, is not, so the client's view
// only moves forward.
func (c *Client) refresh() bool {
	if c.coord == nil {
		return false
	}
	d, err := c.coord.GetConfig()
	if err != nil {
		return false
	}
	for {
		held := c.dir.Load()
		if d.Epoch() <= held.Epoch() || c.dir.CompareAndSwap(held, d) {
			return true
		}
	}
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

// Invoke runs a (potentially mutating) method at the object's primary.
func (c *Client) Invoke(id core.ObjectID, method string, args [][]byte) ([]byte, error) {
	return c.invoke(telemetry.SpanContext{}, id, method, args, false)
}

// InvokeTraced is Invoke under a freshly minted trace; it returns the trace
// ID so the caller can fetch the request's spans with the nodes'
// node.traces. Every other call goes untraced.
func (c *Client) InvokeTraced(id core.ObjectID, method string, args [][]byte) ([]byte, uint64, error) {
	ctx := telemetry.NewRootContext()
	resp, err := c.invoke(ctx, id, method, args, false)
	return resp, ctx.Trace, err
}

// InvokeRead runs a read-only method at the object's read replica
// (shard.Group.ReadReplica), the one replica that caches its results. A
// backup serves only a method whose link-time facts prove it a read, and
// only under a valid lease; any other it redirects to the primary.
func (c *Client) InvokeRead(id core.ObjectID, method string, args [][]byte) ([]byte, error) {
	return c.invoke(telemetry.SpanContext{}, id, method, args, true)
}

// send is the client's one retry loop, and so the definition of its
// at-least-once semantics: every attempt resolves its target afresh (the
// view may have changed) — a primary, or for a spread read the replica the
// attempt names in its object's order — sends it the same frame, and
// classifies a failure as one of two shapes: a stale view (not-responsible)
// or a connection-level fault.
// Retries are bounded by MaxRetries and RetryBudget; a routing error and a
// write's connection failure without a coordinator return at once.
func (c *Client) send(ctx telemetry.SpanContext, method string, body []byte, spread bool, resolve func(attempt int) (string, error)) ([]byte, error) {
	deadline := time.Now().Add(c.retryBudget)
	var lastErr error
	for attempt := 0; attempt < c.maxRetries; attempt++ {
		if attempt > 0 && !c.backoff(attempt, deadline) {
			break
		}
		addr, err := resolve(attempt)
		if err != nil {
			return nil, err
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
		// Connection-level failure: the node may have died; refresh config
		// (failover may have promoted a backup) and retry after backoff.
		// Without a coordinator the view cannot change, so a write fails;
		// a spread read still fails over to the next replica in its
		// object's order.
		if !c.refresh() && !spread {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("cluster: %s failed after retries: %w", method, lastErr)
}

// invoke sends one invoke frame; spread sends it to the object's read
// replica (InvokeRead) instead of its primary. The frame is the same
// either way.
func (c *Client) invoke(ctx telemetry.SpanContext, id core.ObjectID, method string, args [][]byte, spread bool) ([]byte, error) {
	body := encodeInvokeReq(&invokeReq{object: id, method: method, args: args})
	defer putInvokeBuf(body)
	return c.send(ctx, MethodInvoke, *body, spread, func(attempt int) (string, error) {
		g, err := c.lookup(id)
		if spread {
			return g.ReadReplica(uint64(id), attempt), err
		}
		return g.Primary, err
	})
}

// InvokeTransaction executes a serializable multi-call transaction
// (strict 2PL over the declared objects). All objects must be homed in the
// same replica group; the request is routed to that group's primary.
func (c *Client) InvokeTransaction(calls []core.TxCall) ([][]byte, error) {
	if len(calls) == 0 {
		return nil, nil
	}
	resp, err := c.send(telemetry.SpanContext{}, MethodInvokeTx, encodeTxReq(&txReq{calls: calls}), false, func(int) (string, error) {
		g, err := c.lookup(calls[0].Object)
		if err != nil {
			return "", err
		}
		for _, call := range calls[1:] {
			cg, err := c.lookup(call.Object)
			if err != nil {
				return "", err
			}
			if cg.ID != g.ID {
				return "", fmt.Errorf("cluster: transaction spans groups %d and %d (objects must share a replica group)", g.ID, cg.ID)
			}
		}
		return g.Primary, nil
	})
	if err != nil {
		return nil, err
	}
	return decodeTxResp(resp)
}

// CreateObject instantiates an object at its primary.
func (c *Client) CreateObject(typeName string, id core.ObjectID) error {
	body := encodeCreateReq(&createReq{object: id, typeName: typeName})
	_, err := c.send(telemetry.SpanContext{}, MethodCreate, body, false, func(int) (string, error) { g, err := c.lookup(id); return g.Primary, err })
	return err
}

// DeleteObject removes an object and all its state at its primary.
func (c *Client) DeleteObject(id core.ObjectID) error {
	_, err := c.send(telemetry.SpanContext{}, MethodDelete, encodeDeleteReq(id), false, func(int) (string, error) { g, err := c.lookup(id); return g.Primary, err })
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

// Migrate moves an object to the given group via its current primary. The
// cutover commits at the coordinator.
func (c *Client) Migrate(id core.ObjectID, destGroup uint64) error {
	// A held view may lag overrides installed by earlier migrations, and
	// the "already there" check below would then no-op a real move: resolve
	// the object's current primary against the coordinator's view.
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
	body := encodeMigrateReq(&migrateReq{object: id, destPrimary: dest.Primary, destGroup: destGroup})
	if _, err := c.pool.Call(g.Primary, MethodMigrate, body); err != nil {
		return err
	}
	// The cutover committed at the coordinator: adopt its view.
	c.refresh()
	return nil
}
