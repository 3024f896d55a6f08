package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	// Median should be ~500ms within bucket resolution (~4.4%).
	med := h.Quantile(0.5)
	if med < 450*time.Millisecond || med > 560*time.Millisecond {
		t.Fatalf("median = %v", med)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Millisecond || p99 > 1100*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Max() < 999*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 450*time.Millisecond || mean > 550*time.Millisecond {
		t.Fatalf("mean = %v", mean)
	}
}

func TestQuantileBounds(t *testing.T) {
	h := &Histogram{}
	h.Record(time.Millisecond)
	if h.Quantile(-1) == 0 || h.Quantile(2) == 0 {
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

func TestSnapshotString(t *testing.T) {
	h := &Histogram{}
	h.Record(5 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 || s.String() == "" {
		t.Fatalf("snapshot %+v", s)
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
