// The snapshot a histogram and a registry leave the process as.
//
// Two concerns live here because they share the bucket layout:
//
//   - HistData is the one summary of a histogram: a sparse copy of the bucket
//     array plus derived quantiles. Because every histogram in the system
//     shares one bucket layout, HistData merge is plain bucket addition —
//     commutative and associative by construction — which is what lets the
//     coordinator roll node snapshots up into group and cluster views.
//   - RegistrySnapshot is every instrument's cumulative value at one instant.
//     The registry keeps no window: whoever wants rates or windowed
//     percentiles keeps its own previous snapshot and takes cur.Sub(prev),
//     so any number of scrapers each see their own full interval.
package telemetry

import (
	"fmt"
	"maps"
	"sort"
	"time"
)

// HistData is a point-in-time, mergeable histogram snapshot: the sparse
// bucket counts plus derived summary fields. All histograms share one bucket
// layout, so Merge is exact (no re-sampling error) and associative.
type HistData struct {
	// Unit says what the *Us fields and bucket values measure: UnitMicros
	// (the default, omitted) or UnitCount for a CountHistogram, whose
	// "microseconds" are plain magnitudes.
	Unit   string `json:"unit,omitempty"`
	Count  uint64 `json:"count"`
	SumUs  uint64 `json:"sum_us"`
	MaxUs  uint64 `json:"max_us"`
	P50Us  uint64 `json:"p50_us"`
	P99Us  uint64 `json:"p99_us"`
	P999Us uint64 `json:"p999_us"`
	// Buckets maps bucket index -> count for non-empty buckets.
	Buckets map[int]uint64 `json:"buckets,omitempty"`
	// Exemplars maps bucket index -> hex trace ID of a recent request that
	// landed in that bucket, linking a quantile spike to an assembled trace.
	Exemplars map[int]string `json:"exemplars,omitempty"`
}

// Data snapshots the histogram, including exemplars.
func (h *Histogram) Data() HistData {
	d := HistData{SumUs: h.sumUs.Load(), MaxUs: h.maxUs.Load()}
	if h.unit != UnitMicros {
		d.Unit = h.unit
	}
	for i := 0; i < bucketCount; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			if d.Buckets == nil {
				d.Buckets = make(map[int]uint64)
			}
			d.Buckets[i] = n
		}
	}
	// Only a counted bucket reports an exemplar: a concurrent traced
	// observation may have stored one since that bucket's count was read.
	if ex := h.exemplars.Load(); ex != nil {
		for i := range d.Buckets {
			if id := ex[i].Load(); id != 0 {
				if d.Exemplars == nil {
					d.Exemplars = make(map[int]string)
				}
				d.Exemplars[i] = fmt.Sprintf("%016x", id)
			}
		}
	}
	d.finalize()
	return d
}

// finalize recomputes Count and the derived quantile fields from the bucket
// counts. Count comes from the buckets (not the count field) so concurrent
// recording can never make quantile targets disagree with bucket contents.
func (d *HistData) finalize() {
	var total uint64
	for _, n := range d.Buckets {
		total += n
	}
	d.Count = total
	d.P50Us = d.quantileUs(0.5)
	d.P99Us = d.quantileUs(0.99)
	d.P999Us = d.quantileUs(0.999)
}

// sortedBuckets returns the non-empty bucket indexes in ascending order.
func (d HistData) sortedBuckets() []int {
	idx := make([]int, 0, len(d.Buckets))
	for i := range d.Buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

func (d HistData) quantileUs(q float64) uint64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total uint64
	for _, n := range d.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for _, i := range d.sortedBuckets() {
		seen += d.Buckets[i]
		if seen > target {
			return uint64(bucketValueUs(i))
		}
	}
	return d.MaxUs
}

// Quantile returns the latency at quantile q in [0,1].
func (d HistData) Quantile(q float64) time.Duration {
	return time.Duration(d.quantileUs(q)) * time.Microsecond
}

// Merge returns the union of two snapshots: bucket-wise addition, summed
// totals, max of maxima. Exemplar conflicts resolve to the lexicographically
// larger trace ID so Merge stays commutative.
func (d HistData) Merge(o HistData) HistData {
	out := HistData{
		Unit:  d.Unit,
		SumUs: d.SumUs + o.SumUs,
		MaxUs: d.MaxUs,
	}
	if out.Unit == "" {
		out.Unit = o.Unit
	}
	if o.MaxUs > out.MaxUs {
		out.MaxUs = o.MaxUs
	}
	for i, n := range d.Buckets {
		if out.Buckets == nil {
			out.Buckets = make(map[int]uint64)
		}
		out.Buckets[i] += n
	}
	for i, n := range o.Buckets {
		if out.Buckets == nil {
			out.Buckets = make(map[int]uint64)
		}
		out.Buckets[i] += n
	}
	for i, ex := range d.Exemplars {
		if out.Exemplars == nil {
			out.Exemplars = make(map[int]string)
		}
		out.Exemplars[i] = ex
	}
	for i, ex := range o.Exemplars {
		if out.Exemplars == nil {
			out.Exemplars = make(map[int]string)
		}
		if cur, ok := out.Exemplars[i]; !ok || ex > cur {
			out.Exemplars[i] = ex
		}
	}
	out.finalize()
	return out
}

// Sub returns the samples recorded since prev was taken from the same
// histogram: bucket-wise subtraction. The windowed max is approximated by the
// highest non-empty delta bucket (the true max of the window is not
// recoverable from cumulative state). Exemplars carry over from the current
// snapshot.
func (d HistData) Sub(prev HistData) HistData {
	out := HistData{Unit: d.Unit}
	for i, n := range d.Buckets {
		p := prev.Buckets[i]
		if n <= p {
			continue
		}
		if out.Buckets == nil {
			out.Buckets = make(map[int]uint64)
		}
		out.Buckets[i] = n - p
	}
	if d.SumUs > prev.SumUs {
		out.SumUs = d.SumUs - prev.SumUs
	}
	if idx := out.sortedBuckets(); len(idx) > 0 {
		out.MaxUs = uint64(bucketValueUs(idx[len(idx)-1]))
	}
	out.Exemplars = d.Exemplars
	out.finalize()
	return out
}

// RegistrySnapshot is every instrument of a registry at one instant, all
// cumulative since the registry was created: histograms, counter totals,
// and gauges (stored and sampled alike). It is the one thing that leaves a
// node — /metrics renders it as text, /metrics.json and the node.stats RPC
// serve it as JSON, the coordinator merges it — and it is also what a window
// looks like: Sub of two snapshots has the same shape, counting only what
// happened between them.
type RegistrySnapshot struct {
	UnixNano int64 `json:"unix_nano"`
	// Seconds is the span the counts cover: since the registry was created
	// for a snapshot, since the earlier snapshot for a Sub, the shortest
	// input span for a merge.
	Seconds    float64             `json:"seconds"`
	Histograms map[string]HistData `json:"histograms,omitempty"`
	Counters   map[string]uint64   `json:"counters,omitempty"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
}

// Snapshot reads every instrument once. It keeps nothing: two callers, or
// the same caller twice, get independent values.
func (r *Registry) Snapshot() RegistrySnapshot { return r.snapshotAt(time.Now()) }

// snapshotAt is Snapshot with an explicit clock for deterministic tests.
func (r *Registry) snapshotAt(now time.Time) RegistrySnapshot {
	snap := RegistrySnapshot{
		UnixNano:   now.UnixNano(),
		Histograms: make(map[string]HistData),
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
	}
	if r == nil {
		return snap
	}
	snap.Seconds = now.Sub(r.created).Seconds()

	// Copy the instrument pointers out so reading them (and calling the
	// samplers, which take their owners' locks) never holds the registry
	// mutex against instrument creation.
	r.mu.Lock()
	hists, funcs := maps.Clone(r.histograms), maps.Clone(r.funcs)
	for n, c := range r.counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		snap.Gauges[n] = g.Value()
	}
	r.mu.Unlock()

	for n, h := range hists {
		snap.Histograms[n] = h.Data()
	}
	for n, fn := range funcs {
		snap.Gauges[n] = fn()
	}
	return snap
}

// Sub returns what happened between prev and s, two snapshots of the same
// registry: histogram samples and counter increments since prev, over the
// seconds between them; gauges are levels and carry over from s. A counter
// that went backwards (the node restarted between the two) clamps to zero
// rather than wrapping. Sub of the zero snapshot is s itself, so a consumer's
// first window is "since the registry was created" with no special case.
func (s RegistrySnapshot) Sub(prev RegistrySnapshot) RegistrySnapshot {
	if prev.UnixNano == 0 {
		return s
	}
	out := RegistrySnapshot{
		UnixNano:   s.UnixNano,
		Seconds:    time.Duration(s.UnixNano - prev.UnixNano).Seconds(),
		Histograms: make(map[string]HistData, len(s.Histograms)),
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     s.Gauges,
	}
	for n, cur := range s.Histograms {
		out.Histograms[n] = cur.Sub(prev.Histograms[n])
	}
	for n, cur := range s.Counters {
		out.Counters[n] = cur - min(cur, prev.Counters[n])
	}
	return out
}

// Rate returns the named counter's increments per second over the span the
// snapshot covers (meaningful on a Sub; on a cumulative snapshot it is the
// lifetime average).
func (s RegistrySnapshot) Rate(counter string) float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return float64(s.Counters[counter]) / s.Seconds
}

// MergeSnapshots folds several snapshots (typically one per node) into one:
// histograms merge bucket-wise, counters add, gauges add (levels across
// nodes accumulate). The merged span is the shortest input span — the span
// over which every input contributed — and the timestamp the latest.
func MergeSnapshots(snaps []RegistrySnapshot) RegistrySnapshot {
	out := RegistrySnapshot{
		Histograms: make(map[string]HistData),
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
	}
	for _, s := range snaps {
		if s.UnixNano > out.UnixNano {
			out.UnixNano = s.UnixNano
		}
		if out.Seconds == 0 || (s.Seconds > 0 && s.Seconds < out.Seconds) {
			out.Seconds = s.Seconds
		}
		for n, h := range s.Histograms {
			out.Histograms[n] = out.Histograms[n].Merge(h)
		}
		for n, c := range s.Counters {
			out.Counters[n] += c
		}
		for n, v := range s.Gauges {
			out.Gauges[n] += v
		}
	}
	return out
}
