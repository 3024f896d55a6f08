// Request-scoped distributed tracing. A trace ID is minted per client
// invocation and propagated through every RPC hop (the rpc package carries
// the context in its frame header); each node records named spans — invoke,
// lock-wait, vm-exec, commit, wal-sync, replicate, rpc — into a fixed-size
// ring buffer that the node.traces operator method serves (internal/debug).
//
// The design goals mirror the Histogram discipline: recording a span is
// allocation-free (spans are value types written into a preallocated ring),
// and a disabled tracer costs a single predicted branch — benchmarks that
// run without tracing are unaffected.
package telemetry

import (
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext is the wire-propagated trace position: which trace the caller
// belongs to and which span is the parent of whatever the callee records.
// The zero value means "untraced".
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context carries a trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

// idState seeds and sequences process-global ID minting. splitmix64 over an
// atomic counter gives unique, well-mixed, non-zero IDs without locks or
// allocation.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano()) | 1) }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTraceID mints a fresh trace identifier (never zero).
func NewTraceID() uint64 {
	for {
		if id := splitmix64(idState.Add(1)); id != 0 {
			return id
		}
	}
}

// NewRootContext mints the context a client attaches to an invocation: a
// fresh trace with no parent span.
func NewRootContext() SpanContext { return SpanContext{Trace: NewTraceID()} }

// Span is one completed, named stage of a traced request.
type Span struct {
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Node   string        `json:"node,omitempty"`
	Start  int64         `json:"start_unix_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Err    string        `json:"err,omitempty"`
}

// Tracer records spans for one node into a bounded ring. Safe for
// concurrent use. A nil *Tracer is valid and permanently disabled.
type Tracer struct {
	node    string
	enabled atomic.Bool
	slowNs  atomic.Int64

	mu   sync.Mutex
	size int
	ring []Span // allocated by the first SetEnabled(true)
	next uint64 // ring cursor; total spans recorded
}

// DefaultTraceBuffer is the span ring capacity when none is given.
const DefaultTraceBuffer = 4096

// NewTracer returns a tracer labelled with the node's identity (usually its
// RPC address). size <= 0 selects DefaultTraceBuffer. The tracer starts
// disabled and holds no ring; SetEnabled turns recording on.
func NewTracer(node string, size int) *Tracer {
	if size <= 0 {
		size = DefaultTraceBuffer
	}
	return &Tracer{node: node, size: size}
}

// SetEnabled turns span recording on or off. The span ring (88 bytes a
// slot) is allocated the first time recording is turned on, so a node that
// never traces never pays for it.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	if on {
		t.mu.Lock()
		if t.ring == nil {
			t.ring = make([]Span, t.size)
		}
		t.mu.Unlock()
	}
	t.enabled.Store(on)
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetSlowThreshold logs any root span (no parent) slower than d; zero
// disables the slow log.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t != nil {
		t.slowNs.Store(int64(d))
	}
}

// SetNode relabels the tracer (nodes learn their bound address after the
// tracer is built).
func (t *Tracer) SetNode(node string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.node = node
	t.mu.Unlock()
}

// ActiveSpan is an in-progress span. It is a value type: starting and
// finishing a span allocates nothing, and the zero ActiveSpan (from a
// disabled or nil tracer) is a no-op.
type ActiveSpan struct {
	t      *Tracer
	span   SpanContext
	parent uint64
	name   string
	start  time.Time
}

// StartSpan opens a span under parent. With the tracer nil or disabled it
// returns the zero ActiveSpan without reading the clock.
func (t *Tracer) StartSpan(parent SpanContext, name string) ActiveSpan {
	if t == nil || !t.enabled.Load() {
		return ActiveSpan{}
	}
	trace := parent.Trace
	if trace == 0 {
		trace = NewTraceID()
	}
	return ActiveSpan{
		t:      t,
		span:   SpanContext{Trace: trace, Span: NewTraceID()},
		parent: parent.Span,
		name:   name,
		start:  time.Now(),
	}
}

// Context returns the propagation context for work nested under this span.
// For a no-op span it returns the zero context, so children of an untraced
// request stay untraced.
func (s ActiveSpan) Context() SpanContext {
	if s.t == nil {
		return SpanContext{}
	}
	return s.span
}

// Recording reports whether the span will be recorded on Finish.
func (s ActiveSpan) Recording() bool { return s.t != nil }

// Finish records the span.
func (s ActiveSpan) Finish() { s.finish("") }

// FinishErr records the span, stamping the error if non-nil.
func (s ActiveSpan) FinishErr(err error) {
	if err != nil && s.t != nil {
		s.finish(err.Error())
		return
	}
	s.finish("")
}

func (s ActiveSpan) finish(errStr string) {
	t := s.t
	if t == nil {
		return
	}
	dur := time.Since(s.start)
	sp := Span{
		Trace:  s.span.Trace,
		ID:     s.span.Span,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start.UnixNano(),
		Dur:    dur,
		Err:    errStr,
	}
	t.mu.Lock()
	sp.Node = t.node
	t.ring[t.next%uint64(len(t.ring))] = sp
	t.next++
	t.mu.Unlock()
	if slow := t.slowNs.Load(); slow > 0 && s.parent == 0 && dur >= time.Duration(slow) {
		log.Printf("telemetry: slow invocation: trace=%016x span=%s node=%s dur=%v err=%q",
			sp.Trace, sp.Name, sp.Node, dur, errStr)
	}
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	size := uint64(len(t.ring))
	var out []Span
	if n <= size {
		out = append(out, t.ring[:n]...)
	} else {
		out = append(out, t.ring[n%size:]...)
		out = append(out, t.ring[:n%size]...)
	}
	return out
}

// TraceSpans returns the retained spans of one trace, ordered by start time.
func (t *Tracer) TraceSpans(trace uint64) []Span {
	all := t.Spans()
	out := all[:0]
	for _, s := range all {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
