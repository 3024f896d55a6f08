package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lambdastore/internal/core"
)

// slices is how many equal parts, by completion index, a window is cut
// into; rate and latency metrics are the median over them, so a burst of
// interference costs one slice instead of shifting the run.
const slices = 5

// sample is one completed op, kept raw: when it ended (since the window
// opened), how long the client waited, and what it was.
type sample struct {
	end, dur int64 // nanoseconds
	kind     opKind
}

// ledger accumulates what acknowledged writes must have done to the stored
// state, across every phase of a run (warm-up, window, traced replays and
// probes); the oracle compares it with the replicas at the end.
type ledger struct {
	timelineEntries atomic.Int64 // 1 + deliveries per acked create_post
	followerEntries atomic.Int64 // 1 per acked add_follower
	failedPosts     atomic.Int64
	failedFollows   atomic.Int64
	userBytes       atomic.Int64

	mu sync.Mutex
	// errs holds the first distinct error strings of failed ops and
	// probes: the system refused or broke, which the failed count and
	// diag.error_rate report. wrong holds the first distinct oracle
	// violations: the system answered, incorrectly, and the run is not
	// correct.
	errs, wrong []string
}

// maxErrs bounds how many distinct strings of each kind a run keeps.
const maxErrs = 10

func (l *ledger) add(list *[]string, msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range *list {
		if e == msg {
			return
		}
	}
	if len(*list) < maxErrs {
		*list = append(*list, msg)
	}
}

func (l *ledger) failure(msg string)   { l.add(&l.errs, msg) }
func (l *ledger) violation(msg string) { l.add(&l.wrong, msg) }

// record books one completed op and returns whether it succeeded with a
// plausible answer. Checks that cost nothing ride here; the traced
// replay's oracle does the rest.
func (l *ledger) record(in *inputs, o op, res []byte, err error) bool {
	if err != nil {
		l.failure(o.method() + ": " + err.Error())
		switch o.kind {
		case opPost:
			l.failedPosts.Add(1)
		case opFollow:
			l.failedFollows.Add(1)
		}
		return false
	}
	switch o.kind {
	case opPost:
		delivered := core.BytesI64(res)
		l.timelineEntries.Add(1 + delivered)
		l.userBytes.Add((2 + delivered) * (16 + postBodyLen))
		// The seeded graph only grows, so a post reaches at least the
		// seeded followers, and exactly them when nobody follows anybody.
		want := int64(len(in.followers[o.obj-1]))
		if delivered < want || (in.w.followPct == 0 && delivered != want) {
			l.violation("create_post: delivered to the wrong number of followers")
			return false
		}
	case opFollow:
		l.followerEntries.Add(1)
		l.userBytes.Add(8)
	case opRead:
		if !in.w.writes() && len(res) != o.limit*(8+16+seedBodyLen) {
			l.violation("get_timeline: result has the wrong length")
			return false
		}
	}
	return true
}

// usage is the process-wide resource reading taken at a window's edges.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64
	gcPause uint64 // ns
}

func takeUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcPause: ms.PauseTotalNs,
	}
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// liveHeapMB is the heap still reachable after a collection: retained
// memory, so work moved into caches shows. Two cycles, because sync.Pool
// contents survive the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// window is what one closed-loop run yields.
type window struct {
	samples   []sample // successful ops, by completion time
	attempted int
	failed    int
	use       usage // deltas across the window
}

// loadClients is the closed loop's width: each client has at most one
// request in flight, all over the one client's pooled connections.
func loadClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runWindow drives the closed loop for the given duration (or, with
// maxOps > 0, until each client has issued that many ops) and returns
// every op's raw timing. No spans are recorded here.
func (d *deployment) runWindow(in *inputs, led *ledger, clients int, salt int64, dur time.Duration, maxOps int) *window {
	per := make([][]sample, clients)
	failed := make([]int, clients)
	before := takeUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := in.newStream(c, salt)
			// Preallocated for the fastest workload so recording an op
			// is two stores, not a reallocation.
			out := make([]sample, 0, int(dur.Seconds()*40000)+maxOps+64)
			last := start
			for n := 0; (maxOps == 0 && last.Sub(start) < dur) || n < maxOps; n++ {
				o := st.next()
				t0 := time.Now()
				res, err := d.issue(in, o)
				last = time.Now()
				if led.record(in, o, res, err) {
					out = append(out, sample{end: int64(last.Sub(start)), dur: int64(last.Sub(t0)), kind: o.kind})
				} else {
					failed[c]++
				}
			}
			per[c] = out
		}(c)
	}
	wg.Wait()
	w := &window{}
	after := takeUsage()
	w.use = usage{cpu: after.cpu - before.cpu, mallocs: after.mallocs - before.mallocs, gcPause: after.gcPause - before.gcPause}
	for c := range per {
		w.samples = append(w.samples, per[c]...)
		w.failed += failed[c]
	}
	w.attempted = len(w.samples) + w.failed
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].end < w.samples[j].end })
	return w
}

// sliceMedians cuts the window into equal slices by completion index and
// returns the median over slices of each slice's rate (ops/s), median
// latency and p99 latency (µs).
func (w *window) sliceMedians() (rate, p50, p99 float64) {
	n := len(w.samples)
	k := slices
	if n < k {
		k = 1
	}
	if n == 0 {
		return 0, 0, 0
	}
	var rates, p50s, p99s []float64
	var prevEnd int64
	for s := 0; s < k; s++ {
		part := w.samples[s*n/k : (s+1)*n/k]
		end := part[len(part)-1].end
		rates = append(rates, float64(len(part))/(float64(end-prevEnd)/1e9))
		prevEnd = end
		durs := make([]int64, len(part))
		for i, sm := range part {
			durs[i] = sm.dur
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		p50s = append(p50s, float64(quantileSorted(durs, 0.50))/1e3)
		p99s = append(p99s, float64(quantileSorted(durs, 0.99))/1e3)
	}
	return median(rates), median(p50s), median(p99s)
}

// kindP50 is the whole window's median latency of reads (or of writes), µs.
func (w *window) kindP50(reads bool) float64 {
	var durs []int64
	for _, sm := range w.samples {
		if (sm.kind == opRead) == reads {
			durs = append(durs, sm.dur)
		}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return float64(quantileSorted(durs, 0.50)) / 1e3
}

func (w *window) reads() int {
	n := 0
	for _, sm := range w.samples {
		if sm.kind == opRead {
			n++
		}
	}
	return n
}
