package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	if d := h.Data(); h.Count() != 0 || d.Count != 0 || d.Quantile(0.5) != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	// Median should be ~500ms within bucket resolution (~4.4%).
	d := h.Data()
	med := d.Quantile(0.5)
	if med < 450*time.Millisecond || med > 560*time.Millisecond {
		t.Fatalf("median = %v", med)
	}
	p99 := d.Quantile(0.99)
	if p99 < 900*time.Millisecond || p99 > 1100*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	if d.MaxUs < 999_000 {
		t.Fatalf("max = %dus", d.MaxUs)
	}
	if mean := d.SumUs / d.Count; mean < 450_000 || mean > 550_000 {
		t.Fatalf("mean = %dus", mean)
	}
}

func TestQuantileBounds(t *testing.T) {
	h := &Histogram{}
	h.Record(time.Millisecond)
	if d := h.Data(); d.Quantile(-1) == 0 || d.Quantile(2) == 0 {
		t.Fatal("clamped quantiles must return the sample")
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i%100+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("lat")
	h2 := r.Histogram("lat")
	if h1 != h2 {
		t.Fatal("histogram not memoized")
	}
	r.Histogram("other")
	r.Counter("ops").Inc()
	names := r.HistogramNames()
	if len(names) != 2 || names[0] != "lat" || names[1] != "other" {
		t.Fatalf("names = %v", names)
	}
	if cn := r.CounterNames(); len(cn) != 1 || cn[0] != "ops" {
		t.Fatalf("counters = %v", cn)
	}
}

// TestNilRegistry pins the "never nil" contract: a nil registry hands out
// instruments that record like any other, registers nothing, and snapshots
// empty — so no component ever tests for one.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c, g, h, sz := r.Counter("c"), r.Gauge("g"), r.Histogram("h"), r.CountHistogram("n")
	c.Inc()
	g.Inc()
	h.Record(time.Millisecond)
	sz.Observe(7)
	r.GaugeFunc("f", func() int64 { t.Error("sampler of a nil registry called"); return 0 })
	if c.Value() != 1 || g.Value() != 1 || h.Count() != 1 || sz.Data().MaxUs != 7 {
		t.Fatal("an unregistered instrument did not record")
	}
	if r.Counter("c") == c {
		t.Fatal("nil registry memoized an instrument")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 || r.CounterNames() != nil || r.HistogramNames() != nil {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

// TestGaugeFuncAndUnits checks that a sampled gauge is read at snapshot
// time, beside the stored gauges, and that a histogram's unit travels with
// its data through merge and sub.
func TestGaugeFuncAndUnits(t *testing.T) {
	r := NewRegistry()
	level := int64(4)
	r.GaugeFunc("pool.idle", func() int64 { return level })
	r.Gauge("in_flight").Inc()
	r.Histogram("lat").Record(time.Millisecond)
	r.CountHistogram("batch").Observe(12)
	s1 := r.Snapshot()
	level = 9
	s2 := r.Snapshot()
	if s1.Gauges["pool.idle"] != 4 || s2.Gauges["pool.idle"] != 9 || s2.Gauges["in_flight"] != 1 {
		t.Fatalf("gauges: %v then %v", s1.Gauges, s2.Gauges)
	}
	if u := s2.Histograms["lat"].Unit; u != "" {
		t.Errorf("latency histogram unit = %q, want the omitted default", u)
	}
	b := s2.Histograms["batch"]
	if b.Unit != UnitCount || b.MaxUs != 12 {
		t.Errorf("count histogram = %+v, want unit %q max 12", b, UnitCount)
	}
	if m := b.Merge(HistData{}); m.Unit != UnitCount {
		t.Errorf("merge dropped the unit: %+v", m)
	}
	if d := b.Sub(s1.Histograms["batch"]); d.Unit != UnitCount || d.Count != 0 {
		t.Errorf("sub = %+v, want an empty count-unit window", d)
	}
}

func TestBucketMonotonicity(t *testing.T) {
	// Larger latencies must never land in smaller buckets.
	prev := -1
	for us := uint64(1); us < 1e9; us *= 3 {
		idx := bucketIndex(us)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < %d", us, idx, prev)
		}
		prev = idx
	}
}
