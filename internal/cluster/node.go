package cluster

import (
	"cmp"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"time"

	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/debug"
	"lambdastore/internal/recovery"
	"lambdastore/internal/replication"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// NodeOptions configures a storage node.
type NodeOptions struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// DataDir is the storage engine directory.
	DataDir string
	// Store tunes the LSM engine (nil = defaults).
	Store *store.Options
	// Runtime tunes the object runtime. Invoker and OnCommit are installed
	// by the node; the remaining knobs (fuel, cache, clock) pass through.
	Runtime core.Options
	// GroupID is the replica group this node belongs to.
	GroupID uint64
	// Directory is the initial configuration (static mode). With a
	// Coordinator configured the node refreshes it periodically.
	Directory *shard.Directory
	// Coordinators lists coordinator replica addresses (optional). With
	// them the node heartbeats every replica, and whenever it is not a
	// member of its group (a restarted replica the failure detector
	// evicted) it syncs from the group's primary by range digests and
	// re-admits itself through the coordinator (DESIGN §11).
	Coordinators []string
	// ClientOptions tunes this node's outbound connections (delay
	// injection for experiments, timeouts).
	ClientOptions *rpc.ClientOptions
	// Tracing enables span recording. Off, the tracer costs one predicted
	// branch per stage; metrics are always collected (atomic increments).
	Tracing bool
	// SlowTraceThreshold logs any root span slower than this (0 = no log).
	SlowTraceThreshold time.Duration
	// RecoveryMaxBytesPerSec rate-limits recovery chunk streaming
	// (0 = unlimited).
	RecoveryMaxBytesPerSec int

	// heartbeat, leaseTTL and moveSession are the node's share of its
	// deployment's coordinator.Cadence: how often it heartbeats, the read
	// lease it grants its backups while primary (backups holding a valid
	// one serve read-only invocations locally; the primary stalls write
	// acks for one TTL after any lease-breaking reconfiguration), and how
	// long a move's partial copy here outlives an idle session. A
	// coordinated StartLocal derives them from its failure detector's
	// timeout; zero is the default coordinator's cadence.
	heartbeat, leaseTTL, moveSession time.Duration
}

// Node is one LambdaStore storage node: it persists objects, executes
// their methods in the embedded isolation runtime, replicates committed
// write-sets to its group's backups when acting as primary, and serves
// read-only invocations when acting as backup.
type Node struct {
	opts    NodeOptions
	addr    string
	db      *store.DB
	rt      *core.Runtime
	srv     *rpc.Server
	pool    *rpc.Pool
	shipper *replication.Shipper
	coord   *coordinator.Client

	// transfer is the state-transfer plane: rejoin and live migration,
	// sender and receiver side.
	transfer *recovery.Plane
	// shipSpans is replicateGroup's scratch, one "replicate" span per
	// member; only the group holding the writer queue touches it.
	shipSpans []telemetry.ActiveSpan

	// leases is this node's backup-side read-lease holder.
	leases *replication.LeaseHolder
	// role is the node's view of itself: its configuration view, role and
	// write-ack barrier (role.go).
	role   *roleMachine
	stopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}  // closed when coordLoop exits; nil without one
	beats  sync.WaitGroup // coordLoop's heartbeat loops

	metrics    *telemetry.Registry
	tracer     *telemetry.Tracer
	forwards   *telemetry.Counter // cross-object invocations routed off-node
	migrations *telemetry.Counter
}

// StartNode opens the store and starts serving.
func StartNode(opts NodeOptions) (_ *Node, err error) {
	def := coordinator.Options{}.Cadence()
	opts.heartbeat = cmp.Or(opts.heartbeat, def.Heartbeat)
	opts.leaseTTL = cmp.Or(opts.leaseTTL, def.Lease)
	opts.moveSession = cmp.Or(opts.moveSession, def.MoveSession)
	// Every node gets a registry and a tracer; tracing is enabled only on
	// request, and the registry's instruments are atomic counters whose
	// cost is negligible.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(opts.Addr, telemetry.DefaultTraceBuffer)
	tracer.SetEnabled(opts.Tracing)
	tracer.SetSlowThreshold(opts.SlowTraceThreshold)

	n := &Node{
		opts:    opts,
		srv:     rpc.NewServer(),
		pool:    rpc.NewPool(opts.ClientOptions),
		stop:    make(chan struct{}),
		metrics: reg,
		tracer:  tracer,
	}
	stOpts := &store.Options{}
	if opts.Store != nil {
		cp := *opts.Store
		stOpts = &cp
	}
	stOpts.Metrics = reg
	stOpts.OnGroup = n.replicateGroup
	if n.db, err = store.Open(opts.DataDir, stOpts); err != nil {
		return nil, err
	}
	// Every later failure tears down whatever exists by then — the store's
	// directory lock, but also the lease-renewal and session-janitor
	// goroutines and the pool: a restart retried on an address not yet
	// released must not leave one half-built node per try.
	defer func() {
		if err != nil {
			n.Close()
		}
	}()
	n.forwards = reg.Counter("cluster.forwards")
	n.migrations = reg.Counter("cluster.migrations")
	n.leases = replication.NewLeaseHolder(
		func() uint64 { return n.Directory().Epoch() }, nil, reg)
	n.srv.SetTelemetry(reg)
	n.pool.SetTelemetry(reg)

	// No failure hook: the coordinator's failure detector learns of a dead
	// backup from the backup's own missing heartbeats.
	n.shipper = replication.NewShipper(n.pool, nil)
	n.shipper.SetLeaseTTL(opts.leaseTTL)

	rtOpts := opts.Runtime
	rtOpts.Invoker = &routerInvoker{node: n}
	rtOpts.Metrics = reg
	rtOpts.Tracer = tracer
	rtOpts.OnCommit = n.afterCommit
	rtOpts.Caches = func(obj core.ObjectID) bool { return n.role.readsFor(obj) } // n.role is built below
	if n.rt, err = core.NewRuntime(n.db, rtOpts); err != nil {
		return nil, err
	}

	n.role = &roleMachine{
		group:       opts.GroupID,
		coordinated: len(opts.Coordinators) > 0,
		ttl:         opts.leaseTTL,
		leases:      n.leases,
		shipper:     n.shipper,
		readOnly:    n.rt.MethodReadOnly,
		reads:       reg.Counter("reads.served"),
		served:      reg.Counter("reads.backup_served"),
		bounced:     reg.Counter("reads.primary_bounced"),
		now:         time.Now,
	}
	if opts.Directory == nil {
		opts.Directory = shard.NewDirectory(nil)
	}
	n.role.cur.Store(&view{dir: opts.Directory})
	reg.GaugeFunc("cluster.primary", func() int64 {
		if n.role.load().primary {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("shard.overrides", func() int64 { return int64(n.Directory().OverrideCount()) })

	// State-transfer plane: every node can send state (it may be primary
	// at any point in its life — donating to a rejoining replica, or as the
	// source of a live move) and receive it (as a move's target; the rejoin
	// loop only runs with coordinators).
	n.transfer = recovery.New(recovery.Options{
		GroupID:      opts.GroupID,
		DB:           n.db,
		Pool:         n.pool,
		Directory:    n.Directory,
		SetDirectory: func(d *shard.Directory) { n.role.install(d, true) },
		Apply:        n.applyTransferred,
		ReloadTypes:  n.rt.ReloadTypes,
		Admit:        n.admitJoiner,
		LockObject: func(object uint64) (func(), error) {
			return n.rt.LockObject(core.ObjectID(object))
		},
		Freeze:             n.freeze,
		CutOver:            n.cutOverObject,
		MaxBytesPerSec:     opts.RecoveryMaxBytesPerSec,
		MoveSessionTimeout: opts.moveSession,
		Metrics:            reg,
		Tracer:             tracer,
	})

	n.registerHandlers()
	addr, err := n.srv.Serve(opts.Addr)
	if err != nil {
		return nil, err
	}
	n.addr = addr
	tracer.SetNode(addr)
	n.transfer.SetSelf(addr)
	// This node's messages carry its address: a fault rule's from.
	n.pool.SetFaultLabel(addr)
	n.role.bind(addr)

	if len(opts.Coordinators) > 0 {
		n.coord = coordinator.NewClient(n.pool, opts.Coordinators)
		// Fetch the current configuration synchronously before serving
		// traffic: a restarting node must learn it was deposed (or that it
		// still is primary, and of whom) before its first routing decision.
		if d, err := n.coord.GetConfig(); err == nil {
			n.SetDirectory(d)
		}
		n.done = make(chan struct{})
		go n.coordLoop()
		n.transfer.Run()
	}
	return n, nil
}

// replicateGroup is the store's group hook: what stands between a durable
// write group and its members' acks — guard, ship, release the writer
// queue, deposed re-check, relay. A failure withholds the acks of the
// members it covers; the client's retry is the at-least-once re-execution.
func (n *Node) replicateGroup(g *store.Group) {
	// The commit guard brackets ship+relay against rejoin admission: while
	// a joiner's cutover reconfigures the group, no commit can slip between
	// "session retired" and "shipper covers the joiner".
	release := n.transfer.GuardCommit()
	defer release()
	// Synchronous shipping (paper §4.2.1: no acknowledged write may be lost
	// to a failover), holding the writer queue, so the commits that arrive
	// meanwhile form the next group and frame. Each member gets a
	// "replicate" span in its request's trace; the frame goes under the
	// first member's.
	for i := range g.Len() {
		n.shipSpans = append(n.shipSpans, n.tracer.StartSpan(g.Batch(i).Trace(), "replicate"))
	}
	ctx := n.shipSpans[0].Context()
	if !ctx.Valid() {
		ctx = g.Batch(0).Trace()
	}
	err := n.shipper.ShipGroup(ctx, g)
	for _, sp := range n.shipSpans {
		sp.FinishErr(err)
	}
	clear(n.shipSpans)
	n.shipSpans = n.shipSpans[:0]
	g.Release()
	// Deposed between routing and commit: the fan-out this group shipped to
	// may already have been emptied, so the write may live here alone. The
	// client retries at the new primary.
	if v := n.role.load(); err == nil && v.deposed() {
		err = notResponsibleError(v.group.Primary)
	}
	if err != nil {
		for i := range g.Len() {
			g.Fail(i, err)
		}
		return
	}
	// Relay the members to any joiner mid-catch-up and to the target of an
	// in-flight move of their object. A lost relay ends that session — the
	// joiner is refused admission, the move aborts — and withholds no ack.
	n.transfer.Relay(g)
}

// applyTransferred is the state-transfer plane's Apply. A primary (a move's
// target or source) replicates it like a commit; a joiner, with nobody to
// ship or relay to, logs it as a backup logs a frame — a commit's deposed
// re-check would refuse it.
func (n *Node) applyTransferred(object uint64, b *store.Batch) error {
	if n.role.load().primary {
		return n.rt.ApplyReplicated(core.ObjectID(object), b)
	}
	return n.rt.ApplyReplicatedBulk([]uint64{object}, []*store.Batch{b})
}

// afterCommit is the commit tail's last step (core.Options.OnCommit): a
// lease-breaking reconfiguration stalls the ack of a durable, replicated
// write until any lease this primary can no longer invalidate has surely
// expired (at most one lease TTL).
func (n *Node) afterCommit(telemetry.SpanContext, core.ObjectID, uint64, *store.Batch) error {
	time.Sleep(n.role.load().ackDelay(n.role.now()))
	return nil
}

// freeze is a move's freeze write (recovery.Options.Freeze, DESIGN §13)
// through the group path, so it returns once every backup applied it; it
// also waits afterCommit's barrier, as a commit's ack would, since a
// replica that left the group may still hold a lease.
func (n *Node) freeze(object, group uint64) (restore func() error, err error) {
	header, err := n.db.Get(core.HeaderKey(core.ObjectID(object)))
	if err != nil {
		return nil, err
	}
	if err = n.putHeader(object, core.MovedHeader(group, header)); err == nil {
		err = n.afterCommit(telemetry.SpanContext{}, core.ObjectID(object), 0, nil)
	}
	return func() error { return n.putHeader(object, core.TypeName(header)) }, err
}

// putHeader writes an object's header through the group path.
func (n *Node) putHeader(object uint64, v []byte) error {
	b := store.NewBatch()
	b.Put(core.HeaderKey(core.ObjectID(object)), v)
	return n.rt.ApplyReplicated(core.ObjectID(object), b)
}

// unmark takes back the mark err shows on one of a request's objects if
// this node is the primary of the group its view homes that object in (a
// move that never committed, DESIGN §13), and reports whether the request
// should run again.
func (n *Node) unmark(objects []core.ObjectID, err error) bool {
	var moved *core.MovedError
	if !errors.As(err, &moved) || !slices.Contains(objects, moved.Object) || !n.role.load().primary {
		return false
	}
	release, err := n.rt.LockObject(moved.Object)
	if err != nil {
		return false
	}
	defer release()
	v := n.role.load()
	g, gerr := v.dir.Lookup(uint64(moved.Object))
	header, err := n.db.Get(core.HeaderKey(moved.Object))
	if gerr != nil || err != nil || !v.primary || g.ID != n.opts.GroupID {
		return false
	}
	if name := core.TypeName(header); len(name) < len(header) {
		err = n.putHeader(uint64(moved.Object), name)
	}
	return err == nil
}

// Addr returns the node's RPC address.
func (n *Node) Addr() string { return n.addr }

// Runtime exposes the node's object runtime (tests, tools).
func (n *Node) Runtime() *core.Runtime { return n.rt }

// DB exposes the node's storage engine (tests, tools).
func (n *Node) DB() *store.DB { return n.db }

// MoveSessions reports the inbound live-migration sessions currently
// open on this node (a non-zero count after a failed move means the
// janitor has not yet reclaimed the partial copy).
func (n *Node) MoveSessions() int {
	_, inbound := n.transfer.Moves()
	return inbound
}

// Metrics returns the node's telemetry registry.
func (n *Node) Metrics() *telemetry.Registry { return n.metrics }

// RecoveryStatus snapshots the node's rejoin state machine.
func (n *Node) RecoveryStatus() recovery.Status { return n.transfer.Status() }

// Close shuts the node down. It is also StartNode's teardown, so it copes
// with a node built only part of the way.
func (n *Node) Close() error {
	n.stopMu.Lock()
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.stopMu.Unlock()
	if n.done != nil {
		<-n.done
	}
	if n.transfer != nil {
		n.transfer.Close()
	}
	n.srv.Close()
	n.shipper.Close()
	n.pool.Close()
	n.beats.Wait()
	return n.db.Close()
}

// serve is the one server-side request path — the twin of Client.send —
// that invoke, transaction, create and delete all run once their frame is
// decoded: route → execute → classify. Per method only the decoder, the
// objects to route — every one must be homed here, a transaction is
// single-node — the invoked method ("" for requests that always write) and
// the core call (exec) differ. Placement rejects before execution, so a
// request this node may not run never waits on an object's lock.
func (n *Node) serve(info rpc.CallInfo, objects []core.ObjectID, method string, exec func(core.CallCtx) ([]byte, error)) ([]byte, error) {
	// Route.
	for _, obj := range objects {
		if err := n.role.route(obj, method); err != nil {
			return nil, err
		}
	}
	if routedHook != nil {
		routedHook()
	}
	// Execute; the commit tail (core's commit, with replicateGroup inside
	// its write, then afterCommit) runs inside it and may withhold the ack.
	// A request that found a mark this node takes back runs once more, as
	// its client would have sent it again on a redirect.
	resp, err := exec(core.CallCtx{Trace: info.Trace})
	if err != nil && n.unmark(objects, err) {
		resp, err = exec(core.CallCtx{Trace: info.Trace})
	}
	if err != nil {
		return resp, n.classify(objects, err)
	}
	return resp, nil
}

// classify is serve's last step. An object that moved away after its
// request was routed answers with the redirect the client follows, not
// no-such-object. So does a mark at a backup whose view homes the object
// here: its primary settles it, redirecting a cutover this view lags or
// taking back a move that never committed (unmark).
func (n *Node) classify(objects []core.ObjectID, err error) error {
	var moved *core.MovedError
	if !errors.As(err, &moved) && !errors.Is(err, core.ErrNoSuchObject) {
		return err
	}
	v := n.role.load()
	for _, obj := range objects {
		if g, lerr := v.dir.Lookup(uint64(obj)); lerr == nil && g.ID != n.opts.GroupID {
			return notResponsibleError(g.Primary)
		}
	}
	if moved != nil && v.member && !v.primary {
		return notResponsibleError(v.group.Primary)
	}
	return err
}

// routedHook, when set, runs in serve between route and execute. It is nil
// outside tests, which set it before starting a node to hold a routed
// request while the object moves away.
var routedHook func()

// registerHandlers wires the RPC surface.
func (n *Node) registerHandlers() {
	replication.RegisterBackupLeased(n.srv, n.rt.ApplyReplicatedBulk, n.tracer, n.metrics,
		func() uint64 { return n.Directory().Epoch() }, n.leases)

	n.transfer.Register(n.srv)

	n.srv.HandleCtx(MethodInvoke, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		req := invokeReqs.Get().(*invokeReq)
		defer req.recycle()
		if err := req.decode(body); err != nil {
			return nil, err
		}
		// The result, cached or not, is built straight into the frame's
		// reply scratch.
		return n.serve(info, []core.ObjectID{req.object}, req.method, func(cc core.CallCtx) ([]byte, error) {
			return n.rt.InvokeTo(info.Reply, req.object, req.method, req.args, cc)
		})
	})

	n.srv.HandleCtx(MethodInvokeTx, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		req, err := decodeTxReq(body)
		if err != nil {
			return nil, err
		}
		objects := make([]core.ObjectID, len(req.calls))
		for i, c := range req.calls {
			objects[i] = c.Object
		}
		return n.serve(info, objects, "", func(cc core.CallCtx) ([]byte, error) {
			results, err := n.rt.InvokeTransactionCtx(req.calls, cc)
			if err != nil {
				return nil, err
			}
			return encodeTxResp(results), nil
		})
	})

	n.srv.HandleCtx(MethodCreate, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		req, err := decodeCreateReq(body)
		if err != nil {
			return nil, err
		}
		return n.serve(info, []core.ObjectID{req.object}, "", func(cc core.CallCtx) ([]byte, error) {
			return nil, n.rt.CreateObject(req.typeName, req.object, cc)
		})
	})

	n.srv.HandleCtx(MethodDelete, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		obj, err := decodeDeleteReq(body)
		if err != nil {
			return nil, err
		}
		return n.serve(info, []core.ObjectID{obj}, "", func(cc core.CallCtx) ([]byte, error) {
			return nil, n.rt.DeleteObject(obj, cc)
		})
	})

	n.srv.Handle(MethodRegisterType, func(body []byte) ([]byte, error) {
		t, err := core.DecodeObjectType(body)
		if err != nil {
			return nil, err
		}
		return nil, n.rt.RegisterType(t)
	})

	n.srv.Handle(MethodMigrate, func(body []byte) ([]byte, error) {
		req, err := decodeMigrateReq(body)
		if err != nil {
			return nil, err
		}
		// A cutover commits only at the coordinator: without one, refuse
		// before anything is frozen or copied.
		if n.coord == nil {
			return nil, errors.New("cluster: migration needs a coordinator")
		}
		if err := n.transfer.Move(uint64(req.object), req.destPrimary, req.destGroup); err != nil {
			return nil, err
		}
		n.migrations.Inc()
		return nil, nil
	})

	debug.Register(n.srv, n.metrics, n.tracer)
	n.srv.Handle(MethodRecovery, func([]byte) ([]byte, error) {
		return json.Marshal(RecoveryReport{Rejoin: n.RecoveryStatus(), DonorSessions: n.transfer.Sessions()})
	})
}

// RecoveryReport is what node.recovery answers with: where the node's
// rejoin state machine sits, and the catch-up sessions it donates to.
type RecoveryReport struct {
	Rejoin        recovery.Status          `json:"rejoin"`
	DonorSessions []recovery.SessionStatus `json:"donor_sessions"`
}

// routerInvoker routes a nested cross-object invocation: objects homed on
// this node run locally; everything else goes to the responsible primary
// over RPC (the aggregated design's only extra hop).
type routerInvoker struct{ node *Node }

// InvokeCtx routes with full call context: local hops keep depth and trace;
// remote hops reset the depth (bounded by RPC timeouts instead) and record
// an "rpc" span whose context crosses the wire, so the callee's invoke span
// nests under it.
func (r *routerInvoker) InvokeCtx(id core.ObjectID, method string, args [][]byte, cc core.CallCtx) ([]byte, error) {
	n := r.node
	g, err := n.Directory().Lookup(uint64(id))
	if err != nil || g.Primary == n.addr || g.Primary == "" {
		return n.rt.InvokeCtx(id, method, args, cc)
	}
	n.forwards.Inc()
	sp := n.tracer.StartSpan(cc.Trace, "rpc")
	wireCtx := sp.Context()
	if !wireCtx.Valid() {
		wireCtx = cc.Trace
	}
	body := encodeInvokeReq(&invokeReq{object: id, method: method, args: args})
	resp, err := n.pool.CallCtx(g.Primary, wireCtx, MethodInvoke, *body)
	putInvokeBuf(body)
	sp.FinishErr(err)
	return resp, err
}
