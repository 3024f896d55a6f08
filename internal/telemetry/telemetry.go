// Package telemetry provides the latency and throughput instrumentation used
// by the benchmark harness: log-scaled latency histograms with percentile
// queries, and monotonic throughput counters.
//
// Recorders are safe for concurrent use; the histogram buckets are updated
// with atomic increments so recording on the hot path costs a few
// nanoseconds and never blocks.
package telemetry

import (
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
	// an assembled trace. Nil until the first traced observation.
	exemplars atomic.Pointer[[bucketCount]atomic.Uint64]
	// unit is what one recorded value means; set by the registry that
	// created the histogram and immutable after ("" reads as UnitMicros).
	unit string
}

// The units a histogram's values can carry. Every histogram shares the
// bucket layout; the unit only decides how a snapshot is labelled.
const (
	UnitMicros = "us"
	UnitCount  = "count"
)

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
	if trace == 0 {
		return
	}
	ex := h.exemplars.Load()
	if ex == nil { // racing first traced observations store into the array that won
		h.exemplars.CompareAndSwap(nil, new([bucketCount]atomic.Uint64))
		ex = h.exemplars.Load()
	}
	ex[idx].Store(trace)
}

// Observe adds one plain magnitude (a batch size, a group size) to a
// CountHistogram.
func (h *Histogram) Observe(n uint64) { h.add(n) }

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

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.n.Load() }

// Registry names the histograms, counters and gauges of one node or
// experiment run; its Snapshot is the one form in which they leave the
// process. Lookups take a mutex, so hot paths resolve their instruments once
// and hold the pointer; recording on the returned instrument is atomic and
// allocation-free.
//
// A nil *Registry is valid, exactly as a nil *Tracer is: it hands out working
// instruments that nothing will ever read, so a component records
// unconditionally whether or not its owner publishes the numbers.
type Registry struct {
	created time.Time

	mu         sync.Mutex
	histograms map[string]*Histogram
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	funcs      map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		created:    time.Now(),
		histograms: make(map[string]*Histogram),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		funcs:      make(map[string]func() int64),
	}
}

// Histogram returns the named latency histogram (unit UnitMicros), creating
// it on first use.
func (r *Registry) Histogram(name string) *Histogram { return r.histogram(name, UnitMicros) }

// CountHistogram returns the named histogram of plain magnitudes (batch
// sizes, group sizes; unit UnitCount), creating it on first use. Feed it
// with Observe.
func (r *Registry) CountHistogram(name string) *Histogram { return r.histogram(name, UnitCount) }

func (r *Registry) histogram(name, unit string) *Histogram {
	if r == nil {
		return &Histogram{unit: unit}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{unit: unit}
		r.histograms[name] = h
	}
	return h
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return lookup(r, r.counters, name)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return lookup(r, r.gauges, name)
}

// lookup returns table[name], inserting a zero instrument on first use.
func lookup[T any](r *Registry, table map[string]*T, name string) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := table[name]
	if !ok {
		v = new(T)
		table[name] = v
	}
	return v
}

// GaugeFunc registers a sampled gauge: fn is called once per Snapshot, off
// every hot path, and its value is reported beside the stored gauges. It is
// how the owner of a point-in-time value (a pool's warm count, whether a
// lease is held) publishes it without mirroring it into an instrument.
// Registering a name again replaces the sampler (a restarted component).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// HistogramNames returns the sorted names of all histograms.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return SortedNames(r.histograms)
}

// CounterNames returns the sorted names of all counters.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return SortedNames(r.counters)
}

// SortedNames returns the keys of a by-name instrument map in order, for
// anything that renders one.
func SortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
