package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestQuantileBucketBoundaries checks that quantiles land in the bucket the
// recorded value maps to: the reported value is the bucket's upper-bound
// representative, so it must be >= the true value and within one sub-bucket
// width (1/bucketsPerOct relative error) above it.
func TestQuantileBucketBoundaries(t *testing.T) {
	values := []uint64{1, 2, 15, 16, 17, 100, 1000, 4095, 4096, 4097, 1 << 20}
	for _, us := range values {
		var h Histogram
		for i := 0; i < 100; i++ {
			h.Record(time.Duration(us) * time.Microsecond)
		}
		d := h.Data()
		for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
			got := uint64(d.Quantile(q).Microseconds())
			if got < us {
				t.Errorf("value %dus q=%v: quantile %dus below recorded value", us, q, got)
			}
			upper := float64(us) * (1 + 2.0/bucketsPerOct)
			if float64(got) > upper+1 {
				t.Errorf("value %dus q=%v: quantile %dus exceeds bucket bound %.1fus", us, q, got, upper)
			}
		}
		// The precomputed fields come from the same walk.
		if uint64(d.Quantile(0.99).Microseconds()) != d.P99Us {
			t.Errorf("value %dus: Quantile(0.99) %v != P99Us %d", us, d.Quantile(0.99), d.P99Us)
		}
	}
}

// TestQuantileOrdering checks p50 <= p99 <= p999 on a skewed distribution
// and that each quantile separates the distribution where expected.
func TestQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := 0; i < 990; i++ {
		h.Record(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(100 * time.Millisecond)
	}
	d := h.Data()
	if d.Count != 1000 {
		t.Fatalf("count = %d", d.Count)
	}
	p50, p99, p999 := d.Quantile(0.5), d.Quantile(0.99), d.Quantile(0.999)
	if p50 > p99 || p99 > p999 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v p999=%v", p50, p99, p999)
	}
	if p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	if p999 < 100*time.Millisecond {
		t.Errorf("p999 = %v, want >= 100ms (the outlier bucket)", p999)
	}
}

func histWith(samples []time.Duration, traces []uint64) HistData {
	var h Histogram
	for i, s := range samples {
		var tr uint64
		if i < len(traces) {
			tr = traces[i]
		}
		h.RecordTraced(s, tr)
	}
	return h.Data()
}

// TestMergeCommutativeAssociative checks merge(a,b) == merge(b,a) and
// merge(merge(a,b),c) == merge(a,merge(b,c)) including the derived fields
// and exemplars.
func TestMergeCommutativeAssociative(t *testing.T) {
	a := histWith([]time.Duration{time.Millisecond, 2 * time.Millisecond, 50 * time.Millisecond}, []uint64{0xa1, 0, 0xa3})
	b := histWith([]time.Duration{time.Millisecond, 100 * time.Millisecond}, []uint64{0xb1, 0xb2})
	c := histWith([]time.Duration{500 * time.Microsecond, 50 * time.Millisecond}, []uint64{0, 0xc2})

	ab, ba := a.Merge(b), b.Merge(a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge not commutative:\nab=%+v\nba=%+v", ab, ba)
	}
	left, right := a.Merge(b).Merge(c), a.Merge(b.Merge(c))
	if !reflect.DeepEqual(left, right) {
		t.Fatalf("merge not associative:\n(ab)c=%+v\na(bc)=%+v", left, right)
	}
	if ab.Count != a.Count+b.Count {
		t.Errorf("merged count %d != %d+%d", ab.Count, a.Count, b.Count)
	}
	if ab.SumUs != a.SumUs+b.SumUs {
		t.Errorf("merged sum %d != %d+%d", ab.SumUs, a.SumUs, b.SumUs)
	}
	if ab.MaxUs != b.MaxUs {
		t.Errorf("merged max %d, want %d", ab.MaxUs, b.MaxUs)
	}
	// Both a and c put a traced sample in the 50ms bucket; the merge must
	// pick the lexicographically larger exemplar regardless of order.
	acIdx := bucketIndex(uint64((50 * time.Millisecond).Microseconds()))
	ac, ca := a.Merge(c), c.Merge(a)
	if ac.Exemplars[acIdx] != ca.Exemplars[acIdx] {
		t.Errorf("exemplar conflict not commutative: %q vs %q", ac.Exemplars[acIdx], ca.Exemplars[acIdx])
	}
}

// TestSubWindowDelta checks that Sub recovers the samples recorded between
// two snapshots.
func TestSubWindowDelta(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}
	prev := h.Data()
	for i := 0; i < 10; i++ {
		h.Record(20 * time.Millisecond)
	}
	win := h.Data().Sub(prev)
	if win.Count != 10 {
		t.Fatalf("window count = %d, want 10", win.Count)
	}
	if got := win.Quantile(0.5); got < 20*time.Millisecond {
		t.Errorf("window p50 = %v, want >= 20ms (old 1ms samples must not leak in)", got)
	}
	if win.SumUs != 10*20000 {
		t.Errorf("window sum = %dus, want 200000us", win.SumUs)
	}
}

// TestExemplarRecorded checks that a traced observation leaves its trace ID
// on the bucket it landed in, and untraced observations do not.
func TestExemplarRecorded(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	h.RecordTraced(50*time.Millisecond, 0xdeadbeef)
	h.RecordTraced(time.Millisecond, 0) // untraced: no exemplar
	d := h.Data()
	idx := bucketIndex(uint64((50 * time.Millisecond).Microseconds()))
	if d.Exemplars[idx] != "00000000deadbeef" {
		t.Fatalf("exemplar = %q, want 00000000deadbeef (exemplars: %v)", d.Exemplars[idx], d.Exemplars)
	}
	if len(d.Exemplars) != 1 {
		t.Fatalf("exemplars = %v, want only the traced bucket", d.Exemplars)
	}
}

// TestHistogramFootprint pins what a histogram that is never traced holds:
// its bucket array and totals, with no exemplar array, which Record,
// Observe and an untraced RecordTraced never allocate.
func TestHistogramFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Histogram{}); size > 4160 {
		t.Fatalf("Histogram is %d bytes, want <= 4160", size)
	}
	var h Histogram
	h.Record(time.Millisecond)
	h.Observe(7)
	h.RecordTraced(time.Millisecond, 0)
	if h.exemplars.Load() != nil {
		t.Fatal("an untraced histogram allocated its exemplars")
	}
	if d := h.Data(); d.Count != 3 || d.Exemplars != nil {
		t.Fatalf("data = %+v, want 3 observations and no exemplars", d)
	}
}

// TestFirstTracedRecordsRace has 8 goroutines make a fresh histogram's first
// traced observations at once while another takes snapshots. Each traces 16
// buckets no other goroutine touches, so an exemplar stored into an array
// that lost the race to be installed would leave its bucket without one:
// every traced bucket must end with exactly the ID recorded there, and no
// snapshot may show an exemplar for a bucket it does not count.
func TestFirstTracedRecordsRace(t *testing.T) {
	const workers, perWorker = 8, 16
	// Observation k lands in bucket 64+k: octave 4+k/16, sub-bucket k%16.
	dur := func(k int) time.Duration {
		e := k/bucketsPerOct + 4
		return time.Duration(1<<e+(k%bucketsPerOct)<<(e-4)) * time.Microsecond
	}
	for round := 0; round < 200; round++ {
		var h Histogram
		start, finished := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < perWorker; i++ {
					k := w*perWorker + i
					h.RecordTraced(dur(k), uint64(k+1))
				}
			}(w)
		}
		snapped := make(chan struct{})
		go func() {
			defer close(snapped)
			<-start
			for {
				d := h.Data()
				for b := range d.Exemplars {
					if d.Buckets[b] == 0 {
						t.Errorf("round %d: exemplar for empty bucket %d", round, b)
						return
					}
				}
				select {
				case <-finished:
					return
				default:
				}
			}
		}()
		close(start)
		wg.Wait()
		close(finished)
		<-snapped
		d := h.Data()
		if len(d.Exemplars) != workers*perWorker {
			t.Fatalf("round %d: %d buckets have exemplars, want %d", round, len(d.Exemplars), workers*perWorker)
		}
		for k := 0; k < workers*perWorker; k++ {
			b := bucketIndex(uint64(dur(k).Microseconds()))
			if want := fmt.Sprintf("%016x", k+1); b != 64+k || d.Exemplars[b] != want {
				t.Fatalf("round %d: observation %d in bucket %d with exemplar %q, want bucket %d with %s", round, k, b, d.Exemplars[b], 64+k, want)
			}
		}
	}
}

// TestRegistrySnapshotSub checks that a snapshot is cumulative and a window
// is the difference of two: what the registry's own rotating window used to
// report, now computed by whoever holds the earlier snapshot.
func TestRegistrySnapshotSub(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op")
	c := r.Counter("ops")
	depth := r.Gauge("depth")
	for range 3 {
		depth.Inc()
	}
	for i := 0; i < 50; i++ {
		h.Record(time.Millisecond)
		c.Inc()
	}
	t0 := r.created
	s1 := r.snapshotAt(t0.Add(2 * time.Second))
	if s1.Histograms["op"].Count != 50 || s1.Counters["ops"] != 50 || s1.Seconds != 2 {
		t.Fatalf("first snapshot: %+v", s1)
	}
	// The first window of a consumer with no earlier snapshot is the
	// cumulative one: since the registry was created.
	if first := s1.Sub(RegistrySnapshot{}); !reflect.DeepEqual(first, s1) {
		t.Fatalf("Sub(zero) = %+v, want the snapshot itself", first)
	}
	if got := s1.Rate("ops"); got != 25 {
		t.Errorf("lifetime rate = %v, want 25/s", got)
	}

	for i := 0; i < 7; i++ {
		h.Record(30 * time.Millisecond)
		c.Inc()
	}
	depth.Inc()
	depth.Inc()
	s2 := r.snapshotAt(t0.Add(2500 * time.Millisecond))
	if s2.Histograms["op"].Count != 57 || s2.Counters["ops"] != 57 {
		t.Fatalf("second snapshot not cumulative: %+v", s2)
	}
	win := s2.Sub(s1)
	if win.Seconds != 0.5 {
		t.Errorf("window = %vs, want 0.5", win.Seconds)
	}
	if hw := win.Histograms["op"]; hw.Count != 7 || hw.Quantile(0.5) < 30*time.Millisecond {
		t.Errorf("window histogram = %+v, want the 7 new 30ms samples only", hw)
	}
	if win.Counters["ops"] != 7 || win.Rate("ops") != 14 {
		t.Errorf("window counter = %d (%v/s), want 7 (14/s)", win.Counters["ops"], win.Rate("ops"))
	}
	if win.Gauges["depth"] != 5 {
		t.Errorf("window gauge = %d, want the current level 5", win.Gauges["depth"])
	}
}

// TestInterleavedScrapersOwnTheirWindows is the regression test for scrapers
// stealing each other's window: when the registry rotated one shared window,
// a 2s scraper and a 3s scraper each saw rates over whatever interval the
// other had left open. With stateless snapshots each consumer subtracts its
// own previous sample and sees its own full interval, however the two
// interleave.
func TestInterleavedScrapersOwnTheirWindows(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	t0 := r.created
	var a, b RegistrySnapshot // each consumer's previous sample
	at := func(sec int) RegistrySnapshot { return r.snapshotAt(t0.Add(time.Duration(sec) * time.Second)) }
	a, b = at(0), at(0)
	// 10 ops every second; A scrapes every 2s, B every 3s.
	for sec := 1; sec <= 12; sec++ {
		c.Add(10)
		if sec%2 == 0 {
			cur := at(sec)
			if w := cur.Sub(a); w.Seconds != 2 || w.Counters["ops"] != 20 || w.Rate("ops") != 10 {
				t.Fatalf("t=%ds: scraper A saw %d ops over %vs, want its own 20 over 2s", sec, w.Counters["ops"], w.Seconds)
			}
			a = cur
		}
		if sec%3 == 0 {
			cur := at(sec)
			if w := cur.Sub(b); w.Seconds != 3 || w.Counters["ops"] != 30 || w.Rate("ops") != 10 {
				t.Fatalf("t=%ds: scraper B saw %d ops over %vs, want its own 30 over 3s", sec, w.Counters["ops"], w.Seconds)
			}
			b = cur
		}
	}
}

// randSnapshot builds a snapshot whose instruments and values are drawn
// from rng, over a small name space so merges collide.
func randSnapshot(rng *rand.Rand) RegistrySnapshot {
	s := RegistrySnapshot{
		UnixNano:   1 + rng.Int63n(1e12),
		Seconds:    float64(1 + rng.Intn(20)),
		Histograms: map[string]HistData{},
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
	}
	for _, n := range []string{"a", "b", "c"} {
		if rng.Intn(3) > 0 {
			s.Counters[n] = uint64(rng.Intn(1000))
		}
		if rng.Intn(3) > 0 {
			s.Gauges[n] = int64(rng.Intn(50))
		}
		if rng.Intn(3) > 0 {
			var h Histogram
			for i := rng.Intn(40); i > 0; i-- {
				h.RecordTraced(time.Duration(1+rng.Intn(100000))*time.Microsecond, uint64(rng.Intn(4)))
			}
			s.Histograms[n] = h.Data()
		}
	}
	return s
}

// TestSnapshotMergeSubProperties is the property test behind the
// aggregation plane: merging is commutative and associative (so scrape
// order cannot change a rollup), a snapshot minus itself is empty, and a
// counter that went backwards — the node restarted between the samples —
// clamps to zero instead of wrapping.
func TestSnapshotMergeSubProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	merge := func(s ...RegistrySnapshot) RegistrySnapshot { return MergeSnapshots(s) }
	for i := 0; i < 200; i++ {
		a, b, c := randSnapshot(rng), randSnapshot(rng), randSnapshot(rng)
		if ab, ba := merge(a, b), merge(b, a); !reflect.DeepEqual(ab, ba) {
			t.Fatalf("merge not commutative:\nab=%+v\nba=%+v", ab, ba)
		}
		if l, r := merge(merge(a, b), c), merge(a, merge(b, c)); !reflect.DeepEqual(l, r) {
			t.Fatalf("merge not associative:\n(ab)c=%+v\na(bc)=%+v", l, r)
		}
		if all := merge(a, b, c); all.Counters["a"] != a.Counters["a"]+b.Counters["a"]+c.Counters["a"] ||
			all.Gauges["b"] != a.Gauges["b"]+b.Gauges["b"]+c.Gauges["b"] ||
			all.Histograms["c"].Count != a.Histograms["c"].Count+b.Histograms["c"].Count+c.Histograms["c"].Count {
			t.Fatalf("merge does not add: %+v", all)
		}
		self := a.Sub(a)
		if self.Seconds != 0 {
			t.Fatalf("a.Sub(a) spans %vs", self.Seconds)
		}
		for n, v := range self.Counters {
			if v != 0 {
				t.Fatalf("a.Sub(a) counter %s = %d", n, v)
			}
		}
		for n, h := range self.Histograms {
			if h.Count != 0 || h.SumUs != 0 || len(h.Buckets) != 0 {
				t.Fatalf("a.Sub(a) histogram %s = %+v", n, h)
			}
		}
		// b as the "earlier" sample of an unrelated registry: wherever it is
		// ahead of a, the difference clamps.
		for n, v := range a.Sub(b).Counters {
			if want := a.Counters[n] - b.Counters[n]; a.Counters[n] < b.Counters[n] {
				if v != 0 {
					t.Fatalf("counter %s went backwards (%d -> %d) and Sub gave %d, want 0", n, b.Counters[n], a.Counters[n], v)
				}
			} else if v != want {
				t.Fatalf("counter %s: Sub = %d, want %d", n, v, want)
			}
		}
	}
}

// TestMergeSnapshots checks cross-node aggregation on a hand-built case:
// counters add, gauges add, histograms merge, the span is the minimum.
func TestMergeSnapshots(t *testing.T) {
	mk := func(n uint64, secs float64) RegistrySnapshot {
		var h Histogram
		for i := uint64(0); i < n; i++ {
			h.Record(time.Millisecond)
		}
		return RegistrySnapshot{
			Seconds:    secs,
			Histograms: map[string]HistData{"op": h.Data()},
			Counters:   map[string]uint64{"ops": n},
			Gauges:     map[string]int64{"inflight": int64(n)},
		}
	}
	m := MergeSnapshots([]RegistrySnapshot{mk(10, 10), mk(30, 5)})
	if m.Histograms["op"].Count != 40 {
		t.Errorf("merged count = %d, want 40", m.Histograms["op"].Count)
	}
	if m.Counters["ops"] != 40 {
		t.Errorf("merged total = %d, want 40", m.Counters["ops"])
	}
	if m.Gauges["inflight"] != 40 {
		t.Errorf("merged gauge = %d, want 40", m.Gauges["inflight"])
	}
	if m.Seconds != 5 {
		t.Errorf("merged span = %v, want 5 (minimum)", m.Seconds)
	}
}

// TestConcurrentRecordSnapshot hammers one registry with recorders while
// snapshotting; run under -race this is the data-race guard, and the final
// snapshot must balance exactly.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op")
	c := r.Counter("ops")
	const workers = 4
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.RecordTraced(time.Duration(i%1000)*time.Microsecond, uint64(w*perWorker+i))
				c.Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			// Count is derived from the buckets, so it can never exceed
			// what has been recorded.
			if n := r.Snapshot().Histograms["op"].Count; n > workers*perWorker {
				t.Errorf("cumulative count %d > recorded %d", n, workers*perWorker)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	final := r.Snapshot()
	if got := final.Histograms["op"].Count; got != workers*perWorker {
		t.Fatalf("final count = %d, want %d", got, workers*perWorker)
	}
	if got := final.Counters["ops"]; got != workers*perWorker {
		t.Fatalf("final counter = %d, want %d", got, workers*perWorker)
	}
}

// TestDisabledTelemetryZeroAlloc is the guard for the "telemetry off costs
// nothing" claim: a nil tracer's span lifecycle and the untraced RecordTraced
// path must not allocate.
func TestDisabledTelemetryZeroAlloc(t *testing.T) {
	var tr *Tracer // nil: permanently disabled
	ctx := SpanContext{}
	if n := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan(ctx, "invoke")
		sp.Finish()
	}); n != 0 {
		t.Errorf("disabled tracer StartSpan/Finish allocates %.1f/op", n)
	}
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() {
		h.RecordTraced(time.Millisecond, 0)
	}); n != 0 {
		t.Errorf("untraced RecordTraced allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(time.Millisecond)
	}); n != 0 {
		t.Errorf("Record allocates %.1f/op", n)
	}
}
