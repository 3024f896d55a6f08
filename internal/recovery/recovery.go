package recovery

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

const (
	// chunkEntries bounds one fetch chunk in entries; chunkByteCap bounds it
	// in bytes so one huge value cannot blow the frame budget.
	chunkEntries = 512
	chunkByteCap = 256 << 10
	// retryDelay paces rejoin attempts after a failure; pollInterval paces
	// the membership watch.
	retryDelay   = 250 * time.Millisecond
	pollInterval = 100 * time.Millisecond
)

// Options wires a Plane into its node.
type Options struct {
	// GroupID is the replica group this node belongs to (and rejoins).
	GroupID uint64
	// DB is the node's storage engine; digests and chunks read consistent
	// snapshots of it.
	DB *store.DB
	// Pool carries every session RPC and relay.
	Pool *rpc.Pool
	// Directory returns the node's current configuration view. The epoch a
	// replica session is pinned to, whether this node is its group's
	// primary, and whether the group owns an object all derive from it.
	Directory func() *shard.Directory
	// SetDirectory installs a view if it is newer than the node's own,
	// checked and swapped atomically: the source's post-cutover directory
	// rides move.end so the target serves at once instead of waiting for a
	// heartbeat.
	SetDirectory func(*shard.Directory)
	// Apply commits a batch through the node's replicated-apply path: a
	// local write whose write group ships and relays it, then cache
	// invalidation.
	Apply func(object uint64, b *store.Batch) error
	// ReloadTypes re-reads persisted type records after a meta-range sync
	// so newly arrived types are dispatchable.
	ReloadTypes func() error
	// Admit proposes the epoch-guarded configuration change re-adding the
	// joiner as a backup and refreshes this node's view before returning,
	// so the shipper covers the joiner from the very next commit.
	Admit func(joiner string, expectEpoch uint64) error
	// LockObject takes the object's write admission, draining every
	// in-flight invocation (reads admit too), and returns the release (nil
	// with an error).
	LockObject func(object uint64) (func(), error)
	// Freeze rewrites the object's header, through the group path, to a
	// mark naming targetGroup, and returns once every backup applied it.
	// restore puts the header back (abort); it is set, also with an error,
	// once the mark may have been written anywhere.
	Freeze func(object, targetGroup uint64) (restore func() error, err error)
	// CutOver proposes the epoch-fenced directory change making targetGroup
	// the object's home, confirms it landed, and refreshes this node's
	// view. It is a move's single commit point.
	CutOver func(object, targetGroup uint64) error
	// MaxBytesPerSec rate-limits a rejoin's chunk streaming (0 = unlimited);
	// moves are never throttled.
	MaxBytesPerSec int
	// MoveSessionTimeout is how long a move's target keeps an inactive
	// inbound session before its janitor reclaims it. It must be positive:
	// a node passes its cadence's 5·D (coordinator.Cadence).
	MoveSessionTimeout time.Duration
	// Metrics, if set, publishes the recovery.* and move.* instruments.
	Metrics *telemetry.Registry
	// Tracer, if set, records each rejoin and each move as one trace and
	// threads commit traces through relays.
	Tracer *telemetry.Tracer
}

// Plane is one node's part in every state transfer: the sender half
// (sender.go), the receiver half (receiver.go) and the two orchestrators
// (rejoin.go, move.go).
//
// Locking: commitMu is the admission fence — every write group's ship+relay
// sequence runs under its read lock (GuardCommit), and a joiner's admission
// takes the write lock, so there is no instant at which a write could be
// acknowledged after the joiner's session retired but before the shipper
// covers it as a real backup. smu guards the sender's session table and imu
// the receiver's; neither is held across a network call: a receiver may
// block a relay RPC while it streams chunks, and chunk fetches must keep
// being servable or the two nodes would deadlock.
type Plane struct {
	opts Options
	self atomic.Pointer[string]

	// Sender half. active mirrors len(sessions) so GuardCommit and Relay
	// are one atomic load when no transfer is running (the common case:
	// every write group passes through both).
	active   atomic.Int32
	commitMu sync.RWMutex
	smu      sync.Mutex
	sessions map[sessionKey]*session

	// Receiver half: the joiner's own replica session (key scope{}) and one
	// session per inbound object.
	imu     sync.Mutex
	inbound map[scope]*inbound

	// Rejoin loop state.
	state      atomic.Int32
	senderAddr atomic.Pointer[string]
	lastErr    atomic.Pointer[string]
	attempts   atomic.Uint64
	rejoins    atomic.Uint64
	lastRejoin atomic.Uint64 // microseconds

	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup

	m metrics
}

// metrics: recovery.* count whole-replica sessions, move.* object sessions.
type metrics struct {
	forwards, gaps               [2]*telemetry.Counter // indexed by scope.kind()
	chunks, streamed             [2]*telemetry.Counter
	diverged                     *telemetry.Counter
	rejoinH                      *telemetry.Histogram
	started, completed           *telemetry.Counter
	aborted, received, reclaimed *telemetry.Counter
	blackoutH, moveH             *telemetry.Histogram
}

// kind indexes the per-scope instrument pairs.
func (s scope) kind() int {
	if s.scoped {
		return 1
	}
	return 0
}

// New builds a Plane and starts its janitor. Register exposes it on the
// node's server; Run starts the rejoin loop; Close stops both.
func New(opts Options) *Plane {
	reg := opts.Metrics
	p := &Plane{
		opts:     opts,
		sessions: make(map[sessionKey]*session),
		inbound:  make(map[scope]*inbound),
		stop:     make(chan struct{}),
		m: metrics{
			forwards:  [2]*telemetry.Counter{reg.Counter("recovery.forwards"), reg.Counter("move.forwards")},
			gaps:      [2]*telemetry.Counter{reg.Counter("recovery.forward_gaps"), reg.Counter("move.forward_gaps")},
			chunks:    [2]*telemetry.Counter{reg.Counter("recovery.chunks_applied"), reg.Counter("move.chunks")},
			streamed:  [2]*telemetry.Counter{reg.Counter("recovery.bytes_streamed"), reg.Counter("move.bytes_streamed")},
			diverged:  reg.Counter("recovery.ranges_diverged"),
			rejoinH:   reg.Histogram("recovery.rejoin_seconds"),
			started:   reg.Counter("move.started"),
			completed: reg.Counter("move.completed"),
			aborted:   reg.Counter("move.aborted"),
			received:  reg.Counter("move.received"),
			reclaimed: reg.Counter("move.sessions_reclaimed"),
			blackoutH: reg.Histogram("move.blackout_us"),
			moveH:     reg.Histogram("move.seconds"),
		},
	}
	for _, a := range []*atomic.Pointer[string]{&p.self, &p.senderAddr, &p.lastErr} {
		a.Store(new(string)) // never nil: status reads dereference them
	}
	reg.GaugeFunc("move.in_flight", func() int64 { out, _ := p.Moves(); return int64(out) })
	reg.GaugeFunc("move.inbound_sessions", func() int64 { _, in := p.Moves(); return int64(in) })
	p.loops.Add(1)
	go p.janitor()
	return p
}

// SetSelf installs the node's bound address (known only after listen).
func (p *Plane) SetSelf(addr string) { p.self.Store(&addr) }

func (p *Plane) selfAddr() string { return *p.self.Load() }

// Run drives the rejoin loop until Close.
func (p *Plane) Run() {
	p.loops.Add(1)
	go p.rejoinLoop()
}

// Close stops the janitor and the rejoin loop.
func (p *Plane) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.loops.Wait()
}

// sleep waits d or until Close; false means closing.
func (p *Plane) sleep(d time.Duration) bool {
	select {
	case <-p.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// isPrimary gates the sender half and Move.
func (p *Plane) isPrimary() bool {
	g, ok := p.opts.Directory().Group(p.opts.GroupID)
	return ok && g.Primary == p.selfAddr()
}

// owns reports whether the directory view maps the object to this node's
// group — the keep-or-delete test for an inbound copy, and the guard
// against clobbering an object the group already serves.
func (p *Plane) owns(object uint64) bool {
	g, err := p.opts.Directory().Lookup(object)
	return err == nil && g.ID == p.opts.GroupID
}

// Register exposes the plane on the node's RPC server: the sender half,
// the receiver's relay sink, and the two calls a move's source makes on its
// target. Every handler records a span parented into the caller's trace,
// so a whole rejoin or move assembles as one tree; a relay's span joins the
// trace of the first commit it carries instead — it is part of that write's
// replication fan-out.
func (p *Plane) Register(srv *rpc.Server) {
	handle := func(method string, fn func(trace telemetry.SpanContext, body []byte) ([]byte, error)) {
		srv.HandleCtx(method, func(info rpc.CallInfo, body []byte) (resp []byte, err error) {
			span := p.opts.Tracer.StartSpan(info.Trace, method)
			defer func() { span.FinishErr(err) }()
			trace := span.Context()
			if !trace.Valid() {
				trace = info.Trace
			}
			return fn(trace, body)
		})
	}
	// onSession registers a call whose whole body is the session's name.
	onSession := func(method string, fn func(*sessionReq) error) {
		handle(method, func(_ telemetry.SpanContext, body []byte) ([]byte, error) {
			req, err := decodeSessionReq(body)
			if err != nil {
				return nil, err
			}
			return nil, fn(req)
		})
	}
	onSession(MethodBegin, p.begin)
	onSession(MethodAdmit, p.admit)

	handle(MethodDigest, func(_ telemetry.SpanContext, body []byte) ([]byte, error) {
		req, err := decodeDigestReq(body)
		if err != nil {
			return nil, err
		}
		if _, err := p.lookup(&req.sessionReq); err != nil {
			return nil, err
		}
		if len(req.buckets) != DefaultBuckets {
			return nil, fmt.Errorf("recovery: digest of %d buckets, want %d", len(req.buckets), DefaultBuckets)
		}
		resp, err := diffDigest(p.opts.DB, req.buckets)
		if err != nil {
			return nil, err
		}
		return encodeDigestResp(resp), nil
	})
	handle(MethodFetch, func(_ telemetry.SpanContext, body []byte) ([]byte, error) {
		req, err := decodeFetchReq(body)
		if err != nil {
			return nil, err
		}
		if _, err := p.lookup(&req.sessionReq); err != nil {
			return nil, err
		}
		return p.serveChunk(req)
	})

	handle(MethodForward, func(_ telemetry.SpanContext, body []byte) ([]byte, error) {
		req, frame, err := splitRelay(body)
		if err != nil {
			return nil, err
		}
		s := p.inboundFor(req.scope)
		if s == nil {
			return nil, fmt.Errorf("recovery: no inbound %s session", req.scope)
		}
		return nil, s.forward(frame)
	})

	handle(MethodMoveOffer, func(trace telemetry.SpanContext, body []byte) ([]byte, error) {
		// The body names the session the source opened: its own address and
		// the object.
		req, err := decodeSessionReq(body)
		if err != nil {
			return nil, err
		}
		if !req.scope.scoped {
			return nil, fmt.Errorf("recovery: move.offer without an object")
		}
		return nil, p.offer(trace, req.peer, req.scope.object)
	})
	handle(MethodMoveEnd, func(_ telemetry.SpanContext, body []byte) ([]byte, error) {
		req, err := decodeMoveEnd(body)
		if err != nil {
			return nil, err
		}
		// Install the view first, unless the node's own already makes this
		// group the owner (SetDirectory keeps whichever view is newer).
		if len(req.dir) > 0 {
			if d, err := shard.Load(req.dir); err == nil && !p.owns(req.object) {
				p.opts.SetDirectory(d)
			}
		}
		if s := p.inboundFor(objectScope(req.object)); s != nil {
			return nil, p.endInbound(s)
		}
		return nil, nil
	})
}

// call issues one RPC under trace: a child span named after the method
// brackets it, and its context rides the frame to the peer's handler span.
func (p *Plane) call(trace telemetry.SpanContext, addr, method string, body []byte) ([]byte, error) {
	span := p.opts.Tracer.StartSpan(trace, method)
	if ctx := span.Context(); ctx.Valid() {
		trace = ctx
	}
	resp, err := p.opts.Pool.CallCtx(addr, trace, method, body)
	span.FinishErr(err)
	return resp, err
}
