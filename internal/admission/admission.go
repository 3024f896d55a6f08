// Package admission is the per-node admission plane: it sits between RPC
// dispatch and execution and decides what the node *refuses* to do under
// overload, instead of letting an unbounded backlog destroy every
// in-flight request's latency.
//
// Two mechanisms compose:
//
//   - A bounded wait queue in front of a fixed pool of execution slots.
//     Arrivals beyond the queue limit are shed immediately (queue-full).
//   - Deadline shedding: a request whose queue wait exceeds its deadline
//     is rejected — both by its own timer while waiting and by the drain
//     path before a worker is wasted on a request the client has likely
//     already given up on. The queue drains FIFO (fairness) or LIFO
//     (fresh-first: under a burst the newest requests still meet their
//     deadline while the oldest, already doomed, are shed).
//
// Rejections carry the "overloaded:" wire prefix so they survive the RPC
// error round trip as strings; clients test with IsOverload and retry
// with capped backoff. Shedding happens strictly before execution — an
// acknowledged write can never be shed, because shed requests never
// reach the runtime's commit path.
package admission

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/telemetry"
)

// ErrOverload is the sentinel every shed rejection matches via errors.Is.
var ErrOverload = errors.New("admission: overloaded")

// overloadPrefix marks shed rejections on the wire. Like the cluster
// package's "not-responsible:" routing prefix, it is the part of the error
// that survives the trip through rpc.RemoteError's string flattening.
const overloadPrefix = "overloaded:"

// overloadError is a shed rejection: typed locally, prefixed for the wire.
type overloadError struct{ reason string }

func (e *overloadError) Error() string { return overloadPrefix + " " + e.reason }

// Is makes errors.Is(err, ErrOverload) true for local rejections.
func (e *overloadError) Is(target error) bool { return target == ErrOverload }

// Overloaded builds a shed rejection carrying reason.
func Overloaded(reason string) error { return &overloadError{reason: reason} }

// IsOverload reports whether err is a shed rejection — either a typed
// local error or one round-tripped through RPC as a RemoteError string
// (possibly wrapped by retry-loop formatting on the way).
func IsOverload(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrOverload) {
		return true
	}
	return strings.Contains(err.Error(), overloadPrefix)
}

// Defaults for zero-valued Options fields.
const (
	DefaultQueueLimit = 1024
	DefaultDeadline   = 100 * time.Millisecond
)

// Options configures a Plane.
type Options struct {
	// Workers bounds how many admitted requests execute concurrently
	// (default runtime.NumCPU()).
	Workers int
	// QueueLimit bounds how many requests may wait for a slot; arrivals
	// beyond it are shed immediately (default DefaultQueueLimit).
	QueueLimit int
	// Deadline bounds queue wait before a request is shed (default
	// DefaultDeadline).
	Deadline time.Duration
	// LIFO drains the queue newest-first instead of oldest-first.
	LIFO bool
	// Metrics, if set, publishes the plane's instruments.
	Metrics *telemetry.Registry
	// Now overrides the clock (deterministic tests).
	Now func() time.Time
}

// waiter is one queued request. granted and reason are written by the
// resolver under Plane.mu before ready is closed; the channel close is the
// happens-before edge that lets the waiter read them without the lock.
type waiter struct {
	ready   chan struct{}
	enq     time.Time
	granted bool
	reason  string
}

// Plane is one node's admission control state. All methods are safe for
// concurrent use.
type Plane struct {
	opts Options
	now  func() time.Time

	mu     sync.Mutex
	active int
	queue  []*waiter
	closed bool

	queued       *telemetry.Counter
	admitted     *telemetry.Counter
	shedDeadline *telemetry.Counter
	shedFull     *telemetry.Counter
	depth        *telemetry.Gauge
	waitHist     *telemetry.Histogram

	ewmaUs atomic.Uint64
}

// New builds a Plane.
func New(opts Options) *Plane {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = DefaultQueueLimit
	}
	if opts.Deadline <= 0 {
		opts.Deadline = DefaultDeadline
	}
	p := &Plane{opts: opts, now: opts.Now}
	if p.now == nil {
		p.now = time.Now
	}
	reg := opts.Metrics
	p.queued = reg.Counter("admission.queued")
	p.admitted = reg.Counter("admission.admitted")
	p.shedDeadline = reg.Counter("admission.shed_deadline")
	p.shedFull = reg.Counter("admission.shed_full")
	p.depth = reg.Gauge("admission.queue_depth")
	reg.GaugeFunc("admission.ewma_latency_us", func() int64 { return int64(p.ewmaUs.Load()) })
	p.waitHist = reg.Histogram("admission.queue_wait")
	return p
}

// Admit requests an execution slot. On success the returned release must be
// called exactly once when the request finishes executing — it feeds the
// time since the grant to Observe and frees the slot; on failure the request
// was shed, the error matches ErrOverload, and nothing needs releasing.
func (p *Plane) Admit() (release func(), err error) {
	now := p.now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.shedFull.Inc()
		return nil, Overloaded("admission plane closed")
	}
	if p.active < p.opts.Workers && len(p.queue) == 0 {
		p.active++
		p.mu.Unlock()
		return p.grant(), nil
	}
	if len(p.queue) >= p.opts.QueueLimit {
		p.mu.Unlock()
		p.shedFull.Inc()
		return nil, Overloaded("admission queue full")
	}
	w := &waiter{ready: make(chan struct{}), enq: now}
	p.queue = append(p.queue, w)
	p.depth.Set(int64(len(p.queue)))
	p.mu.Unlock()
	p.queued.Inc()

	timer := time.NewTimer(p.opts.Deadline)
	defer timer.Stop()
	select {
	case <-w.ready:
	case <-timer.C:
		p.mu.Lock()
		if p.removeLocked(w) {
			p.depth.Set(int64(len(p.queue)))
			p.mu.Unlock()
			p.shedDeadline.Inc()
			return nil, Overloaded("queue wait exceeded deadline")
		}
		// The drain resolved this waiter between the timer firing and the
		// lock being taken; the closed channel says how it went.
		p.mu.Unlock()
		<-w.ready
	}
	if !w.granted {
		// Shed by the drain path or Close; already counted there.
		return nil, Overloaded(w.reason)
	}
	p.waitHist.Record(p.now().Sub(w.enq))
	return p.grant(), nil
}

// grant counts one admission and starts its service-time clock.
func (p *Plane) grant() (release func()) {
	p.admitted.Inc()
	start := p.now()
	return func() {
		p.Observe(p.now().Sub(start))
		p.release()
	}
}

// release frees one execution slot, handing it to the next admissible
// waiter. Waiters whose queue wait already exceeds the deadline are shed
// here instead of being granted a slot their client has given up on.
func (p *Plane) release() {
	now := p.now()
	p.mu.Lock()
	for len(p.queue) > 0 {
		var w *waiter
		if p.opts.LIFO {
			w = p.queue[len(p.queue)-1]
			p.queue[len(p.queue)-1] = nil
			p.queue = p.queue[:len(p.queue)-1]
		} else {
			w = p.queue[0]
			p.queue[0] = nil
			p.queue = p.queue[1:]
		}
		if now.Sub(w.enq) > p.opts.Deadline {
			w.granted = false
			w.reason = "queue wait exceeded deadline"
			close(w.ready)
			p.shedDeadline.Inc()
			continue
		}
		// Slot transferred: active stays constant.
		w.granted = true
		close(w.ready)
		p.depth.Set(int64(len(p.queue)))
		p.mu.Unlock()
		return
	}
	p.active--
	p.depth.Set(0)
	p.mu.Unlock()
}

// removeLocked drops w from the queue if still present.
func (p *Plane) removeLocked(w *waiter) bool {
	for i, q := range p.queue {
		if q == w {
			copy(p.queue[i:], p.queue[i+1:])
			p.queue[len(p.queue)-1] = nil
			p.queue = p.queue[:len(p.queue)-1]
			return true
		}
	}
	return false
}

// ewmaAlpha weights a new observation 1/8: smooth enough to ride out one
// slow request, fresh enough to track a load shift within tens of them.
const ewmaAlpha = 0.125

// Observe feeds one completed request's service latency into the plane's
// EWMA, exported as the admission.ewma_latency_us gauge so the coordinator
// aggregator sees each node's service-time trend next to its shed rate.
func (p *Plane) Observe(d time.Duration) {
	us := uint64(d.Microseconds())
	for {
		cur := p.ewmaUs.Load()
		next := us
		if cur != 0 {
			next = uint64(float64(cur)*(1-ewmaAlpha) + float64(us)*ewmaAlpha)
		}
		if p.ewmaUs.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Close sheds every queued waiter and refuses future admissions. Requests
// already executing finish normally; their release calls still run.
func (p *Plane) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, w := range p.queue {
		w.granted = false
		w.reason = "admission plane closed"
		close(w.ready)
		p.shedFull.Inc()
	}
	p.queue = nil
	p.depth.Set(0)
	p.mu.Unlock()
}

// Status is the /admission debug endpoint's JSON shape.
type Status struct {
	Enabled       bool    `json:"enabled"`
	Workers       int     `json:"workers"`
	Active        int     `json:"active"`
	QueueDepth    int     `json:"queue_depth"`
	QueueLimit    int     `json:"queue_limit"`
	LIFO          bool    `json:"lifo"`
	DeadlineMs    float64 `json:"deadline_ms"`
	Queued        uint64  `json:"queued"`
	Admitted      uint64  `json:"admitted"`
	ShedDeadline  uint64  `json:"shed_deadline"`
	ShedFull      uint64  `json:"shed_full"`
	EWMALatencyUs uint64  `json:"ewma_latency_us"`
}

// Status snapshots the plane.
func (p *Plane) Status() Status {
	p.mu.Lock()
	active, depth := p.active, len(p.queue)
	p.mu.Unlock()
	return Status{
		Enabled:       true,
		Workers:       p.opts.Workers,
		Active:        active,
		QueueDepth:    depth,
		QueueLimit:    p.opts.QueueLimit,
		LIFO:          p.opts.LIFO,
		DeadlineMs:    float64(p.opts.Deadline) / float64(time.Millisecond),
		Queued:        p.queued.Value(),
		Admitted:      p.admitted.Value(),
		ShedDeadline:  p.shedDeadline.Value(),
		ShedFull:      p.shedFull.Value(),
		EWMALatencyUs: p.ewmaUs.Load(),
	}
}
