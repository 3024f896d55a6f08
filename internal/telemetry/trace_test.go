package telemetry

import (
	"testing"
	"time"
)

// TestBucketIndexEdges pins the integer bucket math at the boundaries where
// the old floating-point log2 could round either way.
func TestBucketIndexEdges(t *testing.T) {
	cases := []struct {
		us   uint64
		want int
	}{
		{0, 0}, // clamped to minTrackableUs
		{1, 0},
		{2, 16}, // exact powers of two start a fresh octave
		{3, 24},
		{4, 32},
		{15, 62}, // sub-16µs octaves stride their sub-buckets
		{16, 64},
		{17, 65},
		{1 << 20, 20 * bucketsPerOct},
		{1<<20 - 1, 20*bucketsPerOct - 1},
		{1<<20 + 1, 20 * bucketsPerOct}, // sub-bucket resolution swallows +1
		{1 << 62, bucketCount - 1},      // overflow clamps to the last bucket
		{^uint64(0), bucketCount - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.us); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.us, got, c.want)
		}
	}
	// Exact powers of two must land exactly at k*16 for every in-range k.
	for k := uint(0); k < 31; k++ {
		if got := bucketIndex(1 << k); got != int(k)*bucketsPerOct {
			t.Errorf("bucketIndex(2^%d) = %d, want %d", k, got, int(k)*bucketsPerOct)
		}
	}
	// Strict monotonicity over every boundary in the first few octaves.
	prev := -1
	for us := uint64(1); us < 4096; us++ {
		idx := bucketIndex(us)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < bucketIndex(%d) = %d", us, idx, us-1, prev)
		}
		prev = idx
	}
}

func TestTracerDisabledAndNil(t *testing.T) {
	var nilTracer *Tracer
	sp := nilTracer.StartSpan(SpanContext{}, "x")
	if sp.Recording() || sp.Context().Valid() {
		t.Fatal("nil tracer must yield a no-op span")
	}
	sp.Finish()
	sp.FinishErr(nil)
	nilTracer.SetEnabled(true)
	nilTracer.SetSlowThreshold(time.Second)
	nilTracer.SetNode("n")
	if nilTracer.Enabled() || nilTracer.Spans() != nil {
		t.Fatal("nil tracer must stay inert")
	}

	tr := NewTracer("node-a", 8)
	if tr.Enabled() {
		t.Fatal("tracer must start disabled")
	}
	sp = tr.StartSpan(NewRootContext(), "x")
	if sp.Recording() {
		t.Fatal("disabled tracer must not record")
	}
	sp.Finish()
	if tr.next != 0 {
		t.Fatalf("disabled tracer recorded %d spans", tr.next)
	}
}

func TestTracerParentChildLinkage(t *testing.T) {
	tr := NewTracer("node-a", 16)
	tr.SetEnabled(true)

	root := tr.StartSpan(SpanContext{}, "invoke")
	if !root.Recording() || !root.Context().Valid() {
		t.Fatal("enabled tracer must record")
	}
	child := tr.StartSpan(root.Context(), "vm-exec")
	if child.Context().Trace != root.Context().Trace {
		t.Fatal("child must inherit the trace ID")
	}
	child.Finish()
	root.Finish()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	// Ring order is completion order: child finished first.
	if spans[0].Name != "vm-exec" || spans[1].Name != "invoke" {
		t.Fatalf("span order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent %016x != root id %016x", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Parent != 0 {
		t.Fatalf("root must have no parent, got %016x", spans[1].Parent)
	}
	for _, s := range spans {
		if s.Node != "node-a" {
			t.Fatalf("span node = %q", s.Node)
		}
		if s.Dur < 0 || s.Start == 0 {
			t.Fatalf("bad span timing: %+v", s)
		}
	}
}

func TestTracerStartSpanMintsTrace(t *testing.T) {
	tr := NewTracer("n", 4)
	tr.SetEnabled(true)
	sp := tr.StartSpan(SpanContext{}, "invoke")
	if sp.Context().Trace == 0 {
		t.Fatal("span under an untraced parent must mint a trace ID")
	}
	// Explicit parent context is honored verbatim.
	parent := SpanContext{Trace: 42, Span: 7}
	sp2 := tr.StartSpan(parent, "child")
	sp2.Finish()
	got := tr.Spans()
	last := got[len(got)-1]
	if last.Trace != 42 || last.Parent != 7 {
		t.Fatalf("span = %+v, want trace=42 parent=7", last)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer("n", 4)
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		tr.StartSpan(SpanContext{Trace: uint64(i + 1)}, "s").Finish()
	}
	if tr.next != 10 {
		t.Fatalf("total = %d", tr.next)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained = %d, want ring size 4", len(spans))
	}
	// Oldest-first: traces 7, 8, 9, 10 survive.
	for i, s := range spans {
		if s.Trace != uint64(7+i) {
			t.Fatalf("spans[%d].Trace = %d, want %d", i, s.Trace, 7+i)
		}
	}
}

func TestTracerTraceSpansFilter(t *testing.T) {
	tr := NewTracer("n", 32)
	tr.SetEnabled(true)
	keep := NewTraceID()
	for i := 0; i < 3; i++ {
		tr.StartSpan(SpanContext{Trace: keep}, "mine").Finish()
		tr.StartSpan(NewRootContext(), "other").Finish()
	}
	got := tr.TraceSpans(keep)
	if len(got) != 3 {
		t.Fatalf("filtered spans = %d, want 3", len(got))
	}
	for i, s := range got {
		if s.Trace != keep || s.Name != "mine" {
			t.Fatalf("span %d = %+v", i, s)
		}
		if i > 0 && s.Start < got[i-1].Start {
			t.Fatal("TraceSpans must be ordered by start time")
		}
	}
}

func TestTracerFinishErr(t *testing.T) {
	tr := NewTracer("n", 4)
	tr.SetEnabled(true)
	tr.StartSpan(SpanContext{}, "fail").FinishErr(errBoom{})
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Err != "boom" {
		t.Fatalf("spans = %+v", spans)
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[uint64]bool, 1000)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 || seen[id] {
			t.Fatalf("duplicate or zero trace ID %016x", id)
		}
		seen[id] = true
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("gauge = %d", g.Value())
	}
	if g2 := r.Gauge("inflight"); g2 != g {
		t.Fatal("gauge not memoized")
	}
	if got := r.Snapshot().Gauges; len(got) != 1 || got["inflight"] != 1 {
		t.Fatalf("snapshot gauges = %v", got)
	}
}

// TestTracerRingAllocatedOnEnable is the regression test for the ring being
// paid for by nodes that never trace: a tracer holds no ring (352 KB at the
// default size) until recording is first turned on, keeps it across a
// disable, and a never-enabled tracer still reads out as empty.
func TestTracerRingAllocatedOnEnable(t *testing.T) {
	tr := NewTracer("n", 0)
	tr.SetEnabled(false)
	if tr.ring != nil {
		t.Fatalf("disabled tracer holds a %d-slot ring", len(tr.ring))
	}
	tr.StartSpan(SpanContext{}, "invoke").Finish()
	if spans := tr.Spans(); len(spans) != 0 || tr.next != 0 {
		t.Fatalf("disabled tracer recorded %v", spans)
	}
	tr.SetEnabled(true)
	if len(tr.ring) != DefaultTraceBuffer {
		t.Fatalf("enabled tracer ring = %d slots, want %d", len(tr.ring), DefaultTraceBuffer)
	}
	tr.StartSpan(SpanContext{}, "invoke").Finish()
	tr.SetEnabled(false)
	tr.SetEnabled(true)
	if spans := tr.Spans(); len(spans) != 1 {
		t.Fatalf("re-enabling dropped the ring: %v", spans)
	}
}

// BenchmarkTelemetryHistogramRecord must run at 0 allocs/op once the
// octaves it records into are installed: Record is on every invocation's
// hot path.
func BenchmarkTelemetryHistogramRecord(b *testing.B) {
	h := &Histogram{}
	for i := 0; i < 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i%1000) * time.Microsecond)
	}
}

// BenchmarkTelemetryDisabledTracerSpan must run at 0 allocs/op and a few ns:
// a node with tracing off pays only a predicted branch per span site.
func BenchmarkTelemetryDisabledTracerSpan(b *testing.B) {
	tr := NewTracer("n", 64)
	ctx := SpanContext{Trace: 1, Span: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(ctx, "invoke")
		sp.Finish()
	}
}

// BenchmarkTelemetryEnabledTracerSpan documents the cost when tracing is on
// (not part of the 0-alloc requirement, but the ring write itself must not
// allocate either).
func BenchmarkTelemetryEnabledTracerSpan(b *testing.B) {
	tr := NewTracer("n", 4096)
	tr.SetEnabled(true)
	ctx := SpanContext{Trace: 1, Span: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(ctx, "invoke")
		sp.Finish()
	}
}
