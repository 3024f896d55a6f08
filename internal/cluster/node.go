package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/admission"
	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/debug"
	"lambdastore/internal/fault"
	"lambdastore/internal/recovery"
	"lambdastore/internal/replication"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
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
	// Coordinators lists coordinator replica addresses (optional).
	Coordinators []string
	// HeartbeatInterval is how often the node reports liveness (default
	// 500ms; only with Coordinators).
	HeartbeatInterval time.Duration
	// ClientOptions tunes this node's outbound connections (delay
	// injection for experiments, timeouts).
	ClientOptions *rpc.ClientOptions
	// DebugAddr, if non-empty, starts the debug HTTP server (/metrics,
	// /traces, /healthz, pprof) on that address ("127.0.0.1:0" for an
	// ephemeral port).
	DebugAddr string
	// Tracing enables span recording. Off, the tracer costs one predicted
	// branch per stage; metrics are always collected (atomic increments).
	Tracing bool
	// TraceBufferSize bounds the span ring (0 = telemetry.DefaultTraceBuffer).
	TraceBufferSize int
	// SlowTraceThreshold logs any root span slower than this (0 = no log).
	SlowTraceThreshold time.Duration
	// Rejoin enables the anti-entropy recovery manager: whenever this
	// node is not a member of its group (a restarted replica), it syncs
	// from the group's primary via range digests and re-admits itself
	// through the coordinator. Requires Coordinators.
	Rejoin bool
	// RecoveryMaxBytesPerSec rate-limits recovery chunk streaming
	// (0 = unlimited).
	RecoveryMaxBytesPerSec int
	// RecoveryFullResync ablates the digest diff: catch-up streams every
	// object the donor holds regardless of divergence (bench baseline).
	RecoveryFullResync bool
	// MaxConcurrentInvokes, when positive, bounds how many client
	// requests (invoke, transaction, create, delete) execute at once — an
	// admission gate modeling per-node compute capacity. In-process
	// multi-node benches share one CPU pool, so without this gate
	// placement has no throughput effect; with it, a node saturates at
	// its own limit the way a real machine saturates its cores. With
	// AdmissionQueue unset the gate never sheds (requests queue FIFO
	// without bound or deadline); with it, this sizes the admission
	// plane's execution slots.
	MaxConcurrentInvokes int
	// AdmissionQueue, when positive, bounds the gate's wait queue to this
	// many requests in front of the execution slots (MaxConcurrentInvokes,
	// or NumCPU when unset), with deadline-based shedding. Requests the
	// plane refuses are rejected with a typed overload error the client
	// retries with capped backoff. Zero with MaxConcurrentInvokes set keeps
	// the unbounded no-shed gate.
	AdmissionQueue int
	// AdmissionDeadline bounds queue wait before a request is shed
	// (0 = admission.DefaultDeadline).
	AdmissionDeadline time.Duration
	// AdmissionLIFO drains the admission queue newest-first: under a
	// burst the freshest requests still meet their deadline while the
	// oldest — whose clients have likely given up — are shed.
	AdmissionLIFO bool
	// MoveSessionTimeout bounds inbound live-migration session
	// inactivity before the target reclaims the partial copy (0 =
	// default 10s; chaos tests shrink it).
	MoveSessionTimeout time.Duration
	// LeaseTTL is the read-lease duration this node grants its backups
	// while primary (0 = DefaultLeaseTTL). Backups holding a valid
	// lease serve read-only invocations locally; the primary stalls
	// write acks for one TTL after any lease-breaking reconfiguration.
	// Keep it at or below the coordinator's heartbeat timeout so a
	// partitioned backup's lease expires before the failure detector
	// can reconfigure around it.
	LeaseTTL time.Duration
}

// DefaultLeaseTTL is the read-lease duration when NodeOptions.LeaseTTL
// is zero.
const DefaultLeaseTTL = 500 * time.Millisecond

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

	// Object fences: while an outbound move quiesces an object, routing
	// rejects it with not-responsible ahead of the admission queue. The
	// atomic count keeps the routeCheck fast path to one load when no
	// fence is up (the overwhelmingly common case). A fence outlives a
	// successful cutover on purpose — it self-clears only once this
	// node's directory view maps the object elsewhere, so a stale view
	// can never let the old home serve post-move requests.
	fenceCount atomic.Int32
	fenceMu    sync.Mutex
	fences     map[uint64]string

	// adm, when non-nil, is the admit step's gate (MaxConcurrentInvokes or
	// AdmissionQueue set): execution slots behind a wait queue — bounded,
	// with deadline shedding, when AdmissionQueue is set; unbounded FIFO
	// that never sheds otherwise.
	adm *admission.Plane

	// Read-lease plane. leases is this node's backup-side holder;
	// leaseTTL is the primary-side grant duration. leaseBarrier holds a
	// unixnano deadline before which no write ack may be released (a
	// lease-breaking membership change happened; orphaned leases must
	// expire first); objBarrier holds the same per object for migrations
	// into this group.
	leases       *replication.LeaseHolder
	leaseTTL     time.Duration
	leaseBarrier atomic.Int64
	objBarrierMu sync.Mutex
	objBarrier   map[uint64]int64

	dir atomic.Pointer[shard.Directory]
	// role is what the view says about this node within its own group,
	// derived once per view change by refreshRole and never nil.
	role   atomic.Pointer[role]
	stopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{} // closed when coordLoop exits; nil without one

	metrics       *telemetry.Registry
	tracer        *telemetry.Tracer
	debugSrv      *debug.Server
	forwards      *telemetry.Counter // cross-object invocations routed off-node
	migrations    *telemetry.Counter
	backupServed  *telemetry.Counter
	primaryBounce *telemetry.Counter
}

// StartNode opens the store and starts serving.
func StartNode(opts NodeOptions) (_ *Node, err error) {
	// Every node gets a registry and a tracer; tracing is enabled only on
	// request, and the registry's instruments are atomic counters whose
	// cost is negligible.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(opts.Addr, opts.TraceBufferSize)
	tracer.SetEnabled(opts.Tracing)
	tracer.SetSlowThreshold(opts.SlowTraceThreshold)

	stOpts := &store.Options{}
	if opts.Store != nil {
		cp := *opts.Store
		stOpts = &cp
	}
	stOpts.Metrics = reg

	db, err := store.Open(opts.DataDir, stOpts)
	if err != nil {
		return nil, err
	}
	n := &Node{
		opts:    opts,
		db:      db,
		srv:     rpc.NewServer(),
		pool:    rpc.NewPool(opts.ClientOptions),
		stop:    make(chan struct{}),
		metrics: reg,
		tracer:  tracer,
		fences:  make(map[uint64]string),
	}
	// Every later failure tears down whatever exists by then — the store's
	// directory lock, but also the lease-renewal and session-janitor
	// goroutines, the pool and the admission plane: a restart retried on an
	// address not yet released must not leave one half-built node per try.
	defer func() {
		if err != nil {
			n.Close()
		}
	}()
	n.role.Store(&role{})
	if opts.AdmissionQueue > 0 {
		n.adm = admission.New(admission.Options{
			Workers:    opts.MaxConcurrentInvokes,
			QueueLimit: opts.AdmissionQueue,
			Deadline:   opts.AdmissionDeadline,
			LIFO:       opts.AdmissionLIFO,
			Metrics:    reg,
		})
	} else if opts.MaxConcurrentInvokes > 0 {
		// Slots without a queue bound: the same plane with nothing to shed
		// on — every request waits its turn, oldest first, however long.
		n.adm = admission.New(admission.Options{
			Workers:    opts.MaxConcurrentInvokes,
			QueueLimit: math.MaxInt,
			Deadline:   math.MaxInt64,
			Metrics:    reg,
		})
	}
	n.forwards = reg.Counter("cluster.forwards")
	n.migrations = reg.Counter("cluster.migrations")
	n.backupServed = reg.Counter("reads.backup_served")
	n.primaryBounce = reg.Counter("reads.primary_bounced")
	n.leaseTTL = opts.LeaseTTL
	if n.leaseTTL <= 0 {
		n.leaseTTL = DefaultLeaseTTL
	}
	n.leases = replication.NewLeaseHolder(
		func() uint64 { return n.dir.Load().Epoch() },
		replication.DefaultLeaseApplyLagMax, nil, reg)
	n.objBarrier = make(map[uint64]int64)
	n.srv.SetTelemetry(reg)
	n.pool.SetTelemetry(reg)
	if opts.Directory == nil {
		opts.Directory = shard.NewDirectory(nil)
	}
	n.dir.Store(opts.Directory)
	reg.GaugeFunc("cluster.primary", func() int64 {
		if n.isPrimary() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("cluster.fenced_objects", func() int64 { return int64(n.fenceCount.Load()) })
	reg.GaugeFunc("shard.overrides", func() int64 { return int64(n.dir.Load().OverrideCount()) })
	reg.GaugeFunc("shard.overrides_redundant", func() int64 { return int64(n.dir.Load().RedundantOverrides()) })

	// No failure hook: the coordinator's failure detector learns of a dead
	// backup from the backup's own missing heartbeats.
	n.shipper = replication.NewShipper(n.pool, nil)
	n.shipper.SetLeaseTTL(n.leaseTTL)

	rtOpts := opts.Runtime
	rtOpts.Invoker = &routerInvoker{node: n}
	rtOpts.Metrics = reg
	rtOpts.Tracer = tracer
	rtOpts.OnCommit = n.afterCommit
	if n.rt, err = core.NewRuntime(db, rtOpts); err != nil {
		return nil, err
	}

	// State-transfer plane: every node can send state (it may be primary
	// at any point in its life — donating to a rejoining replica, or as the
	// source of a live move) and receive it (as a move's target; the rejoin
	// loop only runs with Rejoin set).
	n.transfer = recovery.New(recovery.Options{
		GroupID:      opts.GroupID,
		DB:           db,
		Pool:         n.pool,
		Directory:    n.dir.Load,
		SetDirectory: n.SetDirectory,
		Apply: func(object uint64, b *store.Batch) error {
			if err := n.rt.ApplyReplicated(core.ObjectID(object), b); err != nil {
				return err
			}
			return n.shipper.Ship(object, b)
		},
		ReloadTypes: n.rt.ReloadTypes,
		Admit:       n.admitJoiner,
		LockObject: func(object uint64) (func(), error) {
			return n.rt.LockObject(core.ObjectID(object))
		},
		Fence:              n.fenceObject,
		Unfence:            n.unfenceObject,
		CutOver:            n.cutOverObject,
		MaxBytesPerSec:     opts.RecoveryMaxBytesPerSec,
		FullResync:         opts.RecoveryFullResync,
		MoveSessionTimeout: opts.MoveSessionTimeout,
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
	// Identify this node's outbound connections to the fault plane so link
	// partitions can name both endpoints.
	n.pool.SetFaultLabel(addr)
	n.refreshRole(nil)

	if opts.DebugAddr != "" {
		// Mirror fault-plane firings into this node's registry so injected
		// drops/delays/errors show up as first-class /metrics counters
		// (fault.injected.<action>) alongside the per-site gauges.
		fault.SetRegistry(reg)
		n.debugSrv, err = debug.Start(opts.DebugAddr, debug.Options{
			Registry: reg,
			Tracer:   tracer,
			Health:   n.health,
			Faults:   true,
			JSON: map[string]func() any{
				"/recovery": func() any {
					return map[string]any{
						"rejoin":         n.transfer.Status(),
						"donor_sessions": n.transfer.Sessions(),
					}
				},
				"/admission": func() any {
					if n.adm == nil {
						return map[string]any{"enabled": false}
					}
					return n.adm.Status()
				},
			},
		})
		if err != nil {
			return nil, err
		}
	}

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
	}
	if opts.Rejoin && len(opts.Coordinators) > 0 {
		n.transfer.Run()
	}
	return n, nil
}

// afterCommit is the commit tail's cluster half (core.Options.OnCommit):
// what stands between a locally durable write-set and its client ack, in
// the order the ack depends on — guard, replicate, deposed re-check, relay,
// lease barrier. Any error withholds the ack; the local commit stands and
// the client's retry is the at-least-once re-execution.
func (n *Node) afterCommit(ctx telemetry.SpanContext, obj core.ObjectID, _ uint64, ws *store.Batch) error {
	// The commit guard brackets ship+relay against rejoin admission: while
	// a joiner's cutover reconfigures the group, no commit can slip between
	// "session retired" and "shipper covers the joiner".
	release := n.transfer.GuardCommit()
	defer release()
	// Synchronous primary-backup shipping: the reply is not released until
	// every backup acknowledged (paper §4.2.1 — no acknowledged write may be
	// lost to a failover); the coordinator evicts a dead backup and the
	// client retries into the reconfigured group.
	sp := n.tracer.StartSpan(ctx, "replicate")
	shipCtx := sp.Context()
	if !shipCtx.Valid() {
		shipCtx = ctx
	}
	err := n.shipper.ShipCtx(shipCtx, uint64(obj), ws)
	sp.FinishErr(err)
	if err != nil {
		return err
	}
	// Deposed between routing and commit: the fan-out this commit shipped
	// to may already have been emptied, so the write may live here alone.
	// The client retries at the new primary.
	if r := n.role.Load(); r.deposed() {
		return notResponsibleError(r.group.Primary)
	}
	// Relay the commit to any joiner mid-catch-up (strict sessions withhold
	// the ack on failure, exactly like a real backup) and to the target of
	// the object's in-flight move, if any (best effort: a lost relay is a
	// forward gap the move's seal heals).
	if err := n.transfer.ForwardCommit(ctx, uint64(obj), ws); err != nil {
		return err
	}
	// Lease-breaking reconfigurations stall the ack until any lease this
	// primary can no longer invalidate has surely expired: the write is
	// durable and shipped by now, only its client visibility waits (bounded
	// by one lease TTL).
	n.waitLeaseBarrier(uint64(obj))
	return nil
}

// admitJoiner is the donor's cutover callback: propose the epoch-fenced
// configuration change re-adding the joiner, then confirm it took and
// refresh this node's view so the shipper covers the joiner before the
// commit fence is released.
func (n *Node) admitJoiner(joiner string, expectEpoch uint64) error {
	if n.coord == nil {
		return fmt.Errorf("cluster: no coordinator to admit %s through", joiner)
	}
	return n.proposeFenced(fmt.Sprintf("admission of %s did not take effect (epoch %d)", joiner, expectEpoch),
		func(d *shard.Directory) error {
			if d.Epoch() > expectEpoch {
				// The replica we read has applied past the fence point and
				// the joiner is not in the group: the epoch fence rejected
				// the proposal (the configuration changed under the
				// session). The joiner re-syncs against the new one.
				return fmt.Errorf("cluster: admission of %s fenced out at epoch %d (expected %d)",
					joiner, d.Epoch(), expectEpoch)
			}
			return n.coord.AddBackup(n.opts.GroupID, joiner, expectEpoch)
		},
		func(*shard.Directory) bool { return slices.Contains(n.role.Load().group.Backups, joiner) })
}

// proposeFenced is the node's one way to change the configuration through
// the coordinator: fetch the view and adopt it, propose an epoch-fenced
// change against it, and confirm by read-back — a fenced proposal that lost
// its race is a silent no-op, so only the directory's own answer (landed)
// proves the change took. A proposal that did not land is made again against
// a fresh view every 10ms for 5s; then the error is "cluster: " + what. An
// error from propose abandons the change for good.
func (n *Node) proposeFenced(what string, propose func(*shard.Directory) error, landed func(*shard.Directory) bool) error {
	deadline := time.Now().Add(5 * time.Second)
	proposed := false
	for {
		if d, err := n.coord.GetConfig(); err == nil {
			n.adoptNewer(d)
			if landed(d) {
				return nil
			}
			if !proposed {
				if err := propose(d); err != nil {
					return err
				}
				proposed = true
				continue // read straight back
			}
		}
		proposed = false
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Addr returns the node's RPC address.
func (n *Node) Addr() string { return n.addr }

// Runtime exposes the node's object runtime (tests, tools).
func (n *Node) Runtime() *core.Runtime { return n.rt }

// DB exposes the node's storage engine (tests, tools).
func (n *Node) DB() *store.DB { return n.db }

// Directory returns the node's current view of the configuration.
func (n *Node) Directory() *shard.Directory { return n.dir.Load() }

// SetDirectory installs a new configuration view.
func (n *Node) SetDirectory(d *shard.Directory) {
	n.refreshRole(n.dir.Swap(d))
}

// adoptNewer installs a view fetched from the coordinator if it is newer
// than the node's own.
func (n *Node) adoptNewer(d *shard.Directory) {
	if d.Epoch() > n.dir.Load().Epoch() {
		n.SetDirectory(d)
	}
}

// role is what a configuration view says about this node within its own
// group: the group, and whether the node leads it. Everything that asks
// "am I primary, and of whom" reads the one published by refreshRole.
type role struct {
	group   shard.Group // zero when the view has no such group
	member  bool        // the view has this node's group
	primary bool        // ... and names this node its primary
}

// deposed reports that the view names another node primary of this node's
// group: a commit that finds it must not be acknowledged.
func (r *role) deposed() bool { return r.member && !r.primary }

// isPrimary reports whether this node's view names it its group's primary.
func (n *Node) isPrimary() bool { return n.role.Load().primary }

// refreshRole is the one place the node derives its role from its view —
// after a view change (old is the view it replaces) and after anything that
// edits a static directory in place (old nil). In order: the read-lease
// consequences of the change, the shipper's epoch stamp (so every shipped
// frame carries the configuration it was committed under; backups fence
// older epochs), the published role, the replication fan-out. The role is
// published before a deposed primary's fan-out is emptied, so a commit that
// shipped to nobody cannot miss that it was deposed.
func (n *Node) refreshRole(old *shard.Directory) {
	d := n.dir.Load()
	now := &role{}
	now.group, now.member = d.Group(n.opts.GroupID)
	now.primary = now.member && now.group.Primary == n.addr
	n.onDirectoryChange(old, d, n.role.Load(), now)
	n.shipper.SetEpoch(d.Epoch())
	n.role.Store(now)
	if now.primary {
		n.shipper.SetBackups(now.group.Backups)
	} else {
		n.shipper.SetBackups(nil)
	}
}

// onDirectoryChange applies the read-lease consequences of a new
// configuration view (was and now are this node's role under each).
// Backup side: any held lease was granted under the old epoch, so it dies
// here (Valid would also catch it; revoking eagerly keeps the counters
// honest). Primary side: if the change could orphan a lease this primary
// can no longer invalidate — a replica left my group (eviction, failover,
// this node's own promotion), or an object migrated into my group while
// the source group's backups may still hold leases covering it — write
// acks stall until one full TTL has passed, by which time every such lease
// has expired (backups honor only 3/4 of the TTL, leaving margin for skew
// and delivery latency).
func (n *Node) onDirectoryChange(old, nw *shard.Directory, was, now *role) {
	if old == nil || nw == nil || old == nw || old.Epoch() == nw.Epoch() {
		return
	}
	n.leases.Revoke()
	if !now.primary {
		return
	}
	until := time.Now().Add(n.leaseTTL).UnixNano()
	shrink := !was.primary
	if !shrink {
		replicas := now.group.Replicas()
		for _, m := range was.group.Replicas() {
			if !slices.Contains(replicas, m) {
				shrink = true
				break
			}
		}
	}
	if shrink {
		for {
			cur := n.leaseBarrier.Load()
			if until <= cur || n.leaseBarrier.CompareAndSwap(cur, until) {
				break
			}
		}
	}
	// Objects newly mapped into my group (override installed, or an
	// override back to a default placement here cleared): the previous
	// home's backups may serve leased reads of them until their view
	// catches up or their lease expires — stall acks per object.
	oldOv, newOv := old.Overrides(), nw.Overrides()
	seen := make(map[uint64]bool, len(oldOv)+len(newOv))
	for obj := range newOv {
		seen[obj] = true
	}
	for obj := range oldOv {
		seen[obj] = true
	}
	for obj := range seen {
		ng, nerr := nw.Lookup(obj)
		if nerr != nil || ng.ID != n.opts.GroupID {
			continue
		}
		ogr, oerr := old.Lookup(obj)
		if oerr == nil && ogr.ID == n.opts.GroupID {
			continue // was already ours
		}
		n.objBarrierMu.Lock()
		if n.objBarrier[obj] < until {
			n.objBarrier[obj] = until
		}
		n.objBarrierMu.Unlock()
	}
}

// waitLeaseBarrier blocks until every write-ack barrier covering the
// object has passed (no-op in the overwhelmingly common case).
func (n *Node) waitLeaseBarrier(object uint64) {
	now := time.Now().UnixNano()
	until := n.leaseBarrier.Load()
	n.objBarrierMu.Lock()
	if len(n.objBarrier) > 0 {
		if t, ok := n.objBarrier[object]; ok {
			if t > until {
				until = t
			}
			if t <= now {
				delete(n.objBarrier, object)
			}
		}
	}
	n.objBarrierMu.Unlock()
	if until > now {
		time.Sleep(time.Duration(until - now))
	}
}

// Forwarded returns how many cross-object invocations left this node.
func (n *Node) Forwarded() uint64 { return n.forwards.Value() }

// MoveSessions reports the inbound live-migration sessions currently
// open on this node (a non-zero count after a failed move means the
// janitor has not yet reclaimed the partial copy).
func (n *Node) MoveSessions() int {
	_, inbound := n.transfer.Moves()
	return inbound
}

// Metrics returns the node's telemetry registry.
func (n *Node) Metrics() *telemetry.Registry { return n.metrics }

// Tracer returns the node's span recorder.
func (n *Node) Tracer() *telemetry.Tracer { return n.tracer }

// DebugAddr returns the debug HTTP server's bound address, or "" when the
// server is not running.
func (n *Node) DebugAddr() string {
	if n.debugSrv == nil {
		return ""
	}
	return n.debugSrv.Addr()
}

// RecoveryStatus snapshots the node's rejoin state machine (tests,
// tools, bench).
func (n *Node) RecoveryStatus() recovery.Status { return n.transfer.Status() }

// RecoveryState returns the rejoin state machine's current position.
func (n *Node) RecoveryState() recovery.State { return n.transfer.State() }

// DonorSessions lists this node's active donor-side catch-up sessions.
func (n *Node) DonorSessions() []recovery.SessionStatus { return n.transfer.Sessions() }

// health backs /healthz: serving stops reporting healthy once Close began.
func (n *Node) health() error {
	select {
	case <-n.stop:
		return fmt.Errorf("cluster: node %s shutting down", n.addr)
	default:
		return nil
	}
}

// coordLoop heartbeats and refreshes configuration.
func (n *Node) coordLoop() {
	defer close(n.done)
	interval := n.opts.HeartbeatInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		// Heartbeat immediately on entry (the failure detector should see
		// a booting node as soon as it serves), then on every tick.
		n.coord.Heartbeat(n.addr, n.DebugAddr())
		if d, err := n.coord.GetConfig(); err == nil {
			n.adoptNewer(d)
		}
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
	}
}

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
	if n.debugSrv != nil {
		n.debugSrv.Close()
	}
	if n.adm != nil {
		n.adm.Close()
	}
	n.srv.Close()
	n.shipper.Close()
	n.pool.Close()
	return n.db.Close()
}

// fenceObject makes routing reject the object with not-responsible
// plus a hint at its (future) home, ahead of the admission queue.
func (n *Node) fenceObject(object uint64, hint string) {
	n.fenceMu.Lock()
	n.fences[object] = hint
	n.fenceCount.Store(int32(len(n.fences)))
	n.fenceMu.Unlock()
}

// unfenceObject lifts a fence (move abort, or self-clear once the
// directory view caught up with a committed cutover).
func (n *Node) unfenceObject(object uint64) {
	n.fenceMu.Lock()
	delete(n.fences, object)
	n.fenceCount.Store(int32(len(n.fences)))
	n.fenceMu.Unlock()
}

// fencedHint reports whether the object is fenced; one atomic load when
// no fence is up.
func (n *Node) fencedHint(object uint64) (string, bool) {
	if n.fenceCount.Load() == 0 {
		return "", false
	}
	n.fenceMu.Lock()
	hint, ok := n.fences[object]
	n.fenceMu.Unlock()
	return hint, ok
}

// cutOverObject is the move's commit point: record the object's new
// home in the directory. Static mode mutates the (possibly shared)
// directory in place; coordinator mode proposes through the replicated
// log with the epoch fence, retrying with a refreshed view when a
// concurrent configuration change fences the proposal out — the
// quiesced state at both ends stays valid across retries. Moves back
// to the object's default hash placement clear the override instead of
// recording one, which is what keeps the override table from growing
// with every migration (compaction folds the rest).
func (n *Node) cutOverObject(object, targetGroup uint64) error {
	if n.coord == nil {
		d := n.dir.Load()
		home, err := d.DefaultGroupID(object)
		if err != nil {
			return err
		}
		if home == targetGroup {
			d.ClearOverride(object)
		} else {
			d.SetOverride(object, targetGroup)
		}
		n.refreshRole(nil)
		return nil
	}
	return n.proposeFenced(fmt.Sprintf("cutover of %d to group %d did not take effect", object, targetGroup),
		func(d *shard.Directory) error {
			// Re-validate against the fresh view: the move is only safe
			// while this node is still the object's primary and the
			// target group still exists.
			if !n.isPrimary() {
				return fmt.Errorf("cluster: cutover of %d abandoned: no longer primary of group %d", object, n.opts.GroupID)
			}
			if _, ok := d.Group(targetGroup); !ok {
				return fmt.Errorf("cluster: cutover of %d abandoned: target group %d is gone", object, targetGroup)
			}
			home, err := d.DefaultGroupID(object)
			if err != nil {
				return err
			}
			// A proposal the coordinator could not take is made again.
			if home == targetGroup {
				_ = n.coord.ClearOverride(object, d.Epoch())
			} else {
				_ = n.coord.SetOverrideFenced(object, targetGroup, d.Epoch())
			}
			return nil
		},
		func(d *shard.Directory) bool {
			g, err := d.Lookup(object)
			return err == nil && g.ID == targetGroup
		})
}

// routeCheck is the route step's one decision per object: may this node
// execute a request on obj? Primaries execute everything; a backup executes
// reads — declared by the client, or proven by module analysis for a request
// that arrived through the write route (method is the invoked method, "" for
// requests that always write) — and only under a valid lease (paper §4.2.1:
// "read-only functions can execute at any replica").
func (n *Node) routeCheck(obj core.ObjectID, readOnly bool, method string) error {
	g, err := n.dir.Load().Lookup(uint64(obj))
	if hint, fenced := n.fencedHint(uint64(obj)); fenced {
		// Quiesced for (or moved by) a live migration. Once this node's
		// view maps the object to another group the cutover has
		// committed and propagated — the fence has done its job.
		if err == nil && g.ID != n.opts.GroupID {
			n.unfenceObject(uint64(obj))
			return notResponsibleError(g.Primary)
		}
		return notResponsibleError(hint)
	}
	if err != nil {
		if len(n.opts.Coordinators) > 0 {
			// A coordinator-managed node without a configuration cannot
			// assume it is anyone's primary: a deposed primary restarting
			// with an empty view would otherwise acknowledge writes without
			// replicating them (zombie primary). Reject until the first
			// config refresh; the client refreshes and re-routes.
			return notResponsibleError("")
		}
		// No configuration, static mode: single-node deployments execute
		// everything.
		return nil
	}
	if g.Primary == n.addr {
		return nil
	}
	if slices.Contains(g.Backups, n.addr) && (readOnly || n.rt.MethodRoutableReadOnly(obj, method)) {
		// A backup serves a read only under a valid lease: right epoch,
		// unexpired, apply lag in bounds. Anything else — the lease died
		// with a reconfiguration, the primary stopped renewing — bounces
		// to the primary, which is always safe.
		if n.leases.Valid() {
			n.backupServed.Inc()
			return nil
		}
		n.primaryBounce.Inc()
	}
	return notResponsibleError(g.Primary)
}

// invokeOpts is what only an invoke frame tells the route and admit steps;
// the zero value is what transactions, creates and deletes pass.
type invokeOpts struct {
	readOnly bool   // client-declared replica read
	method   string // lets a backup prove an undeclared read read-only
}

// serve is the one server-side request path — the twin of Client.send —
// that invoke, transaction, create and delete all run once their frame is
// decoded: route → admit → execute → classify. Per method only the decoder,
// the objects to route — every one must be homed here, a transaction is
// single-node — and the core call (exec) differ. The order is an
// invariant, not a convenience: fences and placement reject ahead of the
// admission queue, so a request this node may not run never takes a slot
// from one it may; and shedding happens strictly before execution, so no
// request that reached commit (and thus no acked write) is ever shed.
func (n *Node) serve(info rpc.CallInfo, objects []core.ObjectID, opts invokeOpts, exec func(core.CallCtx) ([]byte, error)) ([]byte, error) {
	// Route.
	for _, obj := range objects {
		if err := n.routeCheck(obj, opts.readOnly, opts.method); err != nil {
			return nil, err
		}
	}
	// Admit.
	if n.adm != nil {
		release, err := n.adm.Admit()
		if err != nil {
			return nil, err
		}
		defer release()
	}
	// Execute; the commit tail (core's commit, then afterCommit) runs
	// inside it and may withhold the ack.
	resp, err := exec(core.CallCtx{Trace: info.Trace})
	// Classify: an object may have been migrated away while its request sat
	// in the admission queue (a move deletes the local copy under the same
	// lock). If the view now maps it elsewhere, answer with the routing
	// redirect the client follows, not a spurious no-such-object.
	if errors.Is(err, core.ErrNoSuchObject) {
		d := n.dir.Load()
		for _, obj := range objects {
			if g, lerr := d.Lookup(uint64(obj)); lerr == nil && g.ID != n.opts.GroupID {
				return nil, notResponsibleError(g.Primary)
			}
		}
	}
	return resp, err
}

// registerHandlers wires the RPC surface.
func (n *Node) registerHandlers() {
	replication.RegisterBackupLeased(n.srv, replication.BulkApplierFunc(
		func(object uint64, b *store.Batch) error {
			return n.rt.ApplyReplicated(core.ObjectID(object), b)
		},
		n.rt.ApplyReplicatedBulk), n.tracer, n.metrics,
		func() uint64 { return n.dir.Load().Epoch() }, n.leases)

	n.transfer.Register(n.srv)

	n.srv.HandleCtx(MethodInvoke, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		req, err := decodeInvokeReq(body)
		if err != nil {
			return nil, err
		}
		opts := invokeOpts{readOnly: req.readOnly, method: req.method}
		return n.serve(info, []core.ObjectID{req.object}, opts, func(cc core.CallCtx) ([]byte, error) {
			return n.rt.InvokeCtx(req.object, req.method, req.args, cc)
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
		return n.serve(info, objects, invokeOpts{}, func(cc core.CallCtx) ([]byte, error) {
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
		return n.serve(info, []core.ObjectID{req.object}, invokeOpts{}, func(cc core.CallCtx) ([]byte, error) {
			return nil, n.rt.CreateObject(req.typeName, req.object, cc)
		})
	})

	n.srv.HandleCtx(MethodDelete, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		r := wire.NewReader(body)
		obj := core.ObjectID(r.Uvarint())
		if err := r.ErrIn("cluster: delete request"); err != nil {
			return nil, err
		}
		return n.serve(info, []core.ObjectID{obj}, invokeOpts{}, func(cc core.CallCtx) ([]byte, error) {
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
		if err := n.transfer.Move(uint64(req.object), req.destPrimary, req.destGroup); err != nil {
			return nil, err
		}
		n.migrations.Inc()
		return nil, nil
	})

	n.srv.Handle(MethodHotWindow, func(body []byte) ([]byte, error) {
		r := wire.NewReader(body)
		limit := r.Uvarint()
		if err := r.ErrIn("cluster: hot-window request"); err != nil {
			return nil, err
		}
		return encodeHotResp(n.rt.HotWindow(int(limit))), nil
	})

	// The same bytes /metrics.json serves, for operators without a debug
	// port to reach.
	n.srv.Handle(MethodStats, func(body []byte) ([]byte, error) {
		return json.Marshal(n.metrics.Snapshot())
	})
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
	d := n.dir.Load()
	g, err := d.Lookup(uint64(id))
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
	resp, err := n.pool.CallCtx(g.Primary, wireCtx, MethodInvoke, body)
	sp.FinishErr(err)
	return resp, err
}
