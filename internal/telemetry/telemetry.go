// Package telemetry provides the latency and throughput instrumentation used
// by the benchmark harness: log-scaled latency histograms with percentile
// queries, and monotonic throughput counters.
//
// Recorders are safe for concurrent use; the histogram buckets are updated
// with atomic increments so recording on the hot path costs a few
// nanoseconds and never blocks.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// bucketCount covers 1us .. ~4295s with at worst ~6% resolution: each
// power-of-two octave is split into bucketsPerOct linear sub-buckets
// (HdrHistogram's log-linear layout), which keeps bucketIndex pure integer
// arithmetic on the record hot path.
const (
	bucketCount    = 512
	bucketsPerOct  = 16
	minTrackableUs = 1
)

// Histogram is a log-scaled latency histogram. The zero value is ready to
// use.
type Histogram struct {
	buckets [bucketCount]atomic.Uint64
	count   atomic.Uint64
	sumUs   atomic.Uint64
	maxUs   atomic.Uint64
	// exemplars[i] holds the trace ID of a recent traced observation that
	// landed in bucket i, so a latency spike in /metrics links directly to
	// an assembled trace.
	exemplars [bucketCount]atomic.Uint64
}

// bucketIndex maps a latency in microseconds to its bucket: the exponent
// selects the octave, the top four mantissa bits select the linear
// sub-bucket within it. Integer-only (bits.Len64), so there is no float
// rounding at bucket edges: 2^k always lands exactly at index k*16.
func bucketIndex(us uint64) int {
	if us < minTrackableUs {
		us = minTrackableUs
	}
	e := uint(bits.Len64(us)) - 1 // floor(log2(us))
	var sub uint64
	if e >= 4 {
		sub = (us - 1<<e) >> (e - 4)
	} else {
		sub = (us - 1<<e) << (4 - e)
	}
	idx := int(e)*bucketsPerOct + int(sub)
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

// bucketValueUs returns the representative latency (upper bound) of bucket i
// in microseconds.
func bucketValueUs(i int) float64 {
	e := i / bucketsPerOct
	sub := i % bucketsPerOct
	return float64(uint64(1)<<uint(e)) * (1 + float64(sub+1)/bucketsPerOct)
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.add(uint64(d.Microseconds()))
}

// RecordTraced adds one observation and, when trace is non-zero, retains the
// trace ID as the exemplar for the bucket the observation landed in.
func (h *Histogram) RecordTraced(d time.Duration, trace uint64) {
	idx := h.add(uint64(d.Microseconds()))
	if trace != 0 {
		h.exemplars[idx].Store(trace)
	}
}

func (h *Histogram) add(us uint64) int {
	idx := bucketIndex(us)
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumUs.Add(us)
	for {
		cur := h.maxUs.Load()
		if us <= cur || h.maxUs.CompareAndSwap(cur, us) {
			return idx
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumUs.Load()/n) * time.Microsecond
}

// Max returns the largest recorded latency.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.maxUs.Load()) * time.Microsecond
}

// Quantile returns the latency at quantile q in [0,1], e.g. 0.5 for the
// median and 0.99 for the 99th percentile.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for i := 0; i < bucketCount; i++ {
		seen += h.buckets[i].Load()
		if seen > target {
			return time.Duration(bucketValueUs(i)) * time.Microsecond
		}
	}
	return h.Max()
}

// Snapshot summarizes the histogram.
type Snapshot struct {
	Count  uint64
	Mean   time.Duration
	Median time.Duration
	P99    time.Duration
	Max    time.Duration
}

// Snapshot returns a point-in-time summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count:  h.Count(),
		Mean:   h.Mean(),
		Median: h.Quantile(0.5),
		P99:    h.Quantile(0.99),
		Max:    h.Max(),
	}
}

// String renders the snapshot for harness output.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.Count, s.Mean, s.Median, s.P99, s.Max)
}

// Counter is a monotonically increasing event counter.
type Counter struct{ n atomic.Uint64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is an instantaneous level (in-flight requests, queue depths). It may
// go up and down, unlike a Counter.
type Gauge struct{ n atomic.Int64 }

// Inc raises the gauge by one.
func (g *Gauge) Inc() { g.n.Add(1) }

// Dec lowers the gauge by one.
func (g *Gauge) Dec() { g.n.Add(-1) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.n.Add(delta) }

// Set pins the gauge to v.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.n.Load() }

// Registry names and aggregates histograms, counters and gauges for one
// node or experiment run. Lookups take a mutex, so hot paths should resolve
// their instruments once and hold the pointer; recording on the returned
// instrument is atomic and allocation-free.
type Registry struct {
	mu         sync.Mutex
	histograms map[string]*Histogram
	counters   map[string]*Counter
	gauges     map[string]*Gauge

	// Sliding-window state for Snapshot: the cumulative values captured at
	// the last window rotation. Guarded separately from mu so snapshotting
	// never blocks instrument creation.
	created  time.Time
	winMu    sync.Mutex
	winStart time.Time
	winHist  map[string]HistData
	winCtr   map[string]uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		histograms: make(map[string]*Histogram),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		created:    time.Now(),
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// HistogramNames returns the sorted names of all histograms.
func (r *Registry) HistogramNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterNames returns the sorted names of all counters.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the sorted names of all gauges.
func (r *Registry) GaugeNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
