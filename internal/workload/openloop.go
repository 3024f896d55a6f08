// Open-loop load generation: Poisson arrivals issued on an absolute
// schedule, independent of completions. The closed-loop drivers in this
// package model a fixed worker pool — when the system slows down, the
// workers slow down with it, and the measured latency silently forgives
// the stall (coordinated omission). An open-loop generator models the
// outside world: arrivals keep coming at the offered rate whether or not
// earlier requests finished, which is the only load model under which
// saturation, queueing collapse, and admission-control shedding are
// visible at all.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/telemetry"
)

// Poisson is a deterministic exponential inter-arrival generator: gaps are
// -ln(U)/rate, the arrival process they induce is Poisson at `rate` per
// second. Seeded, so two runs at the same rate replay the same schedule.
type Poisson struct {
	rng  *rand.Rand
	rate float64
}

// NewPoisson builds a generator for ratePerSec arrivals per second.
func NewPoisson(seed int64, ratePerSec float64) *Poisson {
	return &Poisson{rng: rand.New(rand.NewSource(seed)), rate: ratePerSec}
}

// Next draws the gap to the next arrival.
func (p *Poisson) Next() time.Duration {
	u := p.rng.Float64()
	for u == 0 { // ln(0) is -Inf; re-draw the measure-zero edge
		u = p.rng.Float64()
	}
	return time.Duration(-math.Log(u) / p.rate * float64(time.Second))
}

// OpenLoopOptions shapes one open-loop run.
type OpenLoopOptions struct {
	// Rate is the offered load in requests per second.
	Rate float64
	// Duration bounds the arrival schedule (arrivals stop; in-flight
	// requests are still drained and recorded).
	Duration time.Duration
	// IsShed classifies an error as an admission-control shed rather than
	// a fault (nil = nothing is a shed).
	IsShed func(error) bool
}

// OpenLoopResult summarizes one open-loop run. Latency is measured from
// each request's *intended* arrival time on the Poisson schedule to its
// completion, so scheduler or issue-loop stalls count against the system
// rather than being silently absorbed (no coordinated omission). Shed
// requests are excluded from the latency distribution — the ablation's
// point is what happens to the requests the system chose to serve.
type OpenLoopResult struct {
	Workload    string
	OfferedRate float64 // requests/sec the schedule offered
	Elapsed     time.Duration
	Issued      uint64
	Completed   uint64
	Shed        uint64
	Errors      uint64
	Throughput  float64 // completed/sec over the full drain
	Latency     telemetry.HistData
}

// ShedRate is the fraction of issued requests shed by admission control.
func (r OpenLoopResult) ShedRate() float64 {
	if r.Issued == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Issued)
}

// String renders a harness row.
func (r OpenLoopResult) String() string {
	return fmt.Sprintf("%-12s offered=%8.1f/s done=%-7d shed=%5.1f%% thr=%9.1f/s  p50=%-10v p99=%-10v errs=%d",
		r.Workload, r.OfferedRate, r.Completed, 100*r.ShedRate(), r.Throughput,
		r.Latency.Quantile(0.5), r.Latency.Quantile(0.99), r.Errors)
}

// RunOpenLoop offers cfg's workload at o.Rate requests per second for
// o.Duration, Poisson arrivals, unbounded virtual clients: every arrival
// gets its own goroutine immediately, no matter how many predecessors are
// still waiting. The schedule is absolute — arrival k's time is the sum of
// the first k gaps from a seeded generator — so a slow issue loop launches
// late-but-attributed rather than silently rescheduling.
func RunOpenLoop(cfg Config, workloadName string, inv Invoker, o OpenLoopOptions) (OpenLoopResult, error) {
	if o.Rate <= 0 {
		return OpenLoopResult{}, fmt.Errorf("workload: open loop needs a positive rate")
	}
	if o.Duration <= 0 {
		return OpenLoopResult{}, fmt.Errorf("workload: open loop needs a positive duration")
	}
	// Fail fast on an unknown workload before spawning anything.
	if _, err := OpStream(cfg, workloadName, inv, 0); err != nil {
		return OpenLoopResult{}, err
	}

	// Each virtual client needs its own op stream (the closures carry
	// per-worker RNG state and are not goroutine-safe). A pool recycles
	// streams across completed arrivals so a long run does not mint one
	// RNG per request.
	var workerSeq atomic.Int64
	streams := sync.Pool{New: func() any {
		op, err := OpStream(cfg, workloadName, inv, int(workerSeq.Add(1)))
		if err != nil {
			return nil
		}
		return op
	}}

	hist := &telemetry.Histogram{}
	var issued, completed, shed, errCount atomic.Uint64
	errCh := make(chan error, 1)

	gen := NewPoisson(Seed, o.Rate)
	start := time.Now()
	end := start.Add(o.Duration)
	var wg sync.WaitGroup
	next := start
	for {
		next = next.Add(gen.Next())
		if next.After(end) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		intended := next
		issued.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			opAny := streams.Get()
			if opAny == nil {
				return // validated above; only an Invoker race could land here
			}
			op := opAny.(func() error)
			t0 := time.Now()
			err := op()
			streams.Put(opAny)
			if err != nil {
				if o.IsShed != nil && o.IsShed(err) {
					shed.Add(1)
				} else {
					errCount.Add(1)
					select {
					case errCh <- err:
					default:
					}
				}
				return
			}
			completed.Add(1)
			hist.RecordWithIntended(t0, intended)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := OpenLoopResult{
		Workload:    workloadName,
		OfferedRate: o.Rate,
		Elapsed:     elapsed,
		Issued:      issued.Load(),
		Completed:   completed.Load(),
		Shed:        shed.Load(),
		Errors:      errCount.Load(),
		Throughput:  float64(completed.Load()) / elapsed.Seconds(),
		Latency:     hist.Data(),
	}
	if res.Completed == 0 && res.Errors > 0 {
		select {
		case err := <-errCh:
			return res, fmt.Errorf("workload %s: all open-loop operations failed: %w", workloadName, err)
		default:
		}
	}
	return res, nil
}
