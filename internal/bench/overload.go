package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"lambdastore/internal/admission"
	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/store"
	"lambdastore/internal/workload"
)

// The overload experiment (EXPERIMENTS.md A13) measures what admission
// control buys under open-loop load. A closed loop can never overload the
// system — its workers slow down with it — so the sweep offers seeded
// Poisson arrivals at fixed multiples of the measured closed-loop
// capacity, from half-load to well past saturation, against two
// deployments that differ only in the admission plane:
//
//   - no-shed: the legacy unbounded semaphore gate. Past the knee every
//     excess arrival joins an unbounded queue; by Little's law the
//     admitted-request latency grows with the backlog, i.e. collapses.
//   - shed: bounded queue + deadline. Excess arrivals are refused in
//     O(deadline); the requests the node does serve keep a bounded queue
//     ahead of them, so their p99 stays within a small multiple of the
//     pre-knee p99 no matter how far past saturation the offered load is.
//
// Latency is CO-safe: RunOpenLoop measures from each request's intended
// Poisson arrival slot, so issue-loop stalls count against the system.
const (
	// overloadWorkers bounds per-node execution slots; with SyncWrites on,
	// a few slots give a modest, stable capacity whose knee the sweep can
	// straddle at laptop scale.
	overloadWorkers = 4
	// overloadQueue/overloadDeadline shape the shed deployment's plane.
	// 50ms keeps the populate phase (32 parallel creators) comfortably
	// under the shed threshold while still being far below the multi-second
	// waits the no-shed deployment accumulates past the knee.
	overloadQueue    = 256
	overloadDeadline = 50 * time.Millisecond
	// overloadStepDuration is one open-loop measurement window.
	overloadStepDuration = 1200 * time.Millisecond
)

// overloadMultipliers are the offered-load points in units of measured
// capacity: two below the knee, three at and past it.
var overloadMultipliers = []float64{0.5, 0.8, 1.1, 1.4, 1.8}

// OverloadPoint is one (config, offered-rate) open-loop measurement.
type OverloadPoint struct {
	Config     string  `json:"config"`
	Multiplier float64 `json:"capacity_multiplier"`
	Offered    float64 `json:"offered_ops_per_sec"`
	Issued     uint64  `json:"issued"`
	Completed  uint64  `json:"completed"`
	Shed       uint64  `json:"shed"`
	ShedRate   float64 `json:"shed_rate"`
	Throughput float64 `json:"throughput_ops_per_sec"`
	P50Us      int64   `json:"p50_us"`
	P99Us      int64   `json:"p99_us"`
	P999Us     int64   `json:"p999_us"`
	Errors     uint64  `json:"errors"`
}

// OverloadReport is the results/BENCH_overload.json document.
type OverloadReport struct {
	GeneratedBy string  `json:"generated_by"`
	Workload    string  `json:"workload"`
	Accounts    int     `json:"accounts"`
	Workers     int     `json:"execution_slots"`
	Queue       int     `json:"admission_queue"`
	DeadlineMs  float64 `json:"admission_deadline_ms"`
	StepMs      float64 `json:"step_ms"`
	// CapacityOpsPerSec is the closed-loop saturation throughput the
	// multipliers are scaled by, measured on the no-shed deployment.
	CapacityOpsPerSec float64         `json:"capacity_ops_per_sec"`
	Multipliers       []float64       `json:"multipliers"`
	Results           []OverloadPoint `json:"results"`
	// PreKneeP99Us is each config's admitted-request p99 at the highest
	// sub-knee multiplier; MaxLoadP99Us the same at the highest multiplier.
	// BoundX is their ratio — the headline: shed stays a small multiple,
	// no-shed collapses.
	ShedPreKneeP99Us   int64   `json:"shed_pre_knee_p99_us"`
	ShedMaxLoadP99Us   int64   `json:"shed_max_load_p99_us"`
	ShedBoundX         float64 `json:"shed_p99_bound_x"`
	NoShedPreKneeP99Us int64   `json:"no_shed_pre_knee_p99_us"`
	NoShedMaxLoadP99Us int64   `json:"no_shed_max_load_p99_us"`
	NoShedBoundX       float64 `json:"no_shed_p99_bound_x"`
}

// overloadOptions scales opts down to the experiment's fixed shape.
func overloadOptions(opts Options, shed bool) Options {
	o := opts
	o.Replicas = 1
	if o.Accounts <= 0 || o.Accounts > 512 {
		o.Accounts = 512
	}
	// Durability-honest writes: the fsync is what gives the node a real,
	// modest per-slot service time (and thus a measurable knee).
	o.Node.Store = &store.Options{SyncWrites: true}
	o.Node.MaxConcurrentInvokes = overloadWorkers
	o.Node.AdmissionQueue, o.Node.AdmissionDeadline = 0, 0
	if shed {
		o.Node.AdmissionQueue, o.Node.AdmissionDeadline = overloadQueue, overloadDeadline
	}
	return o
}

// runOverloadSweep populates one deployment and walks the offered-load
// points. capacity <= 0 means "measure it first, closed-loop" (done on
// the no-shed deployment so both configs share one scale).
func runOverloadSweep(opts Options, shed bool, capacity float64, w io.Writer) ([]OverloadPoint, float64, error) {
	name := "no-shed"
	if shed {
		name = "shed"
	}
	d, err := StartAggregated(overloadOptions(opts, shed))
	if err != nil {
		return nil, 0, err
	}
	defer d.Close()
	// The measurement client does not retry, so a shed arrival is observed
	// as a shed instead of being masked by backoff-and-retry (the retry path
	// is exercised by the chaos probe; here it would unbound the very
	// latency being measured).
	meas, err := cluster.NewClient(cluster.ClientConfig{
		Directory:  d.Agg.Dir,
		RPC:        opts.clientOpts(),
		MaxRetries: 1,
	})
	if err != nil {
		return nil, 0, err
	}
	defer meas.Close()

	cfg := workload.DefaultConfig(overloadOptions(opts, shed).Accounts)
	if err := workload.Populate(cfg, d.Create, d.Invoker); err != nil {
		return nil, 0, fmt.Errorf("populate: %w", err)
	}

	if capacity <= 0 {
		res, err := workload.RunClosedLoop(cfg, workload.Post, d.Invoker, 2*overloadWorkers, 2000)
		if err != nil {
			return nil, 0, fmt.Errorf("capacity probe: %w", err)
		}
		capacity = res.Throughput
		if w != nil {
			fmt.Fprintf(w, "  closed-loop capacity (%d slots, sync writes): %.1f ops/s\n",
				overloadWorkers, capacity)
		}
	}

	inv := workload.InvokerFunc(func(object uint64, method string, args [][]byte) ([]byte, error) {
		return meas.Invoke(core.ObjectID(object), method, args)
	})
	var points []OverloadPoint
	for _, mult := range overloadMultipliers {
		res, err := workload.RunOpenLoop(cfg, workload.Post, inv, workload.OpenLoopOptions{
			Rate:     mult * capacity,
			Duration: overloadStepDuration,
			IsShed:   admission.IsOverload,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("open loop at %.1fx: %w", mult, err)
		}
		p := OverloadPoint{
			Config:     name,
			Multiplier: mult,
			Offered:    res.OfferedRate,
			Issued:     res.Issued,
			Completed:  res.Completed,
			Shed:       res.Shed,
			ShedRate:   res.ShedRate(),
			Throughput: res.Throughput,
			P50Us:      int64(res.Latency.P50Us),
			P99Us:      int64(res.Latency.P99Us),
			P999Us:     int64(res.Latency.P999Us),
			Errors:     res.Errors,
		}
		points = append(points, p)
		if w != nil {
			fmt.Fprintf(w, "  %-8s %.1fx offered=%8.1f/s done=%-6d shed=%5.1f%% thr=%8.1f/s p50=%7dus p99=%8dus errs=%d\n",
				p.Config, p.Multiplier, p.Offered, p.Completed, 100*p.ShedRate,
				p.Throughput, p.P50Us, p.P99Us, p.Errors)
		}
	}
	return points, capacity, nil
}

// RunOverload runs the latency-vs-offered-load sweep to and past
// saturation, shed on vs off. An empty outPath skips the JSON artifact.
func RunOverload(opts Options, outPath string, w io.Writer) (*OverloadReport, error) {
	rep := &OverloadReport{
		GeneratedBy: "make bench-overload",
		Workload:    workload.Post,
		Accounts:    overloadOptions(opts, false).Accounts,
		Workers:     overloadWorkers,
		Queue:       overloadQueue,
		DeadlineMs:  float64(overloadDeadline) / float64(time.Millisecond),
		StepMs:      float64(overloadStepDuration) / float64(time.Millisecond),
		Multipliers: overloadMultipliers,
	}
	if w != nil {
		fmt.Fprintf(w, "Overload: open-loop Poisson %s sweep, %d execution slot(s), steps of %v\n",
			workload.Post, overloadWorkers, overloadStepDuration)
	}

	noShed, capacity, err := runOverloadSweep(opts, false, 0, w)
	if err != nil {
		return nil, fmt.Errorf("bench: overload no-shed: %w", err)
	}
	rep.CapacityOpsPerSec = capacity
	shed, _, err := runOverloadSweep(opts, true, capacity, w)
	if err != nil {
		return nil, fmt.Errorf("bench: overload shed: %w", err)
	}
	rep.Results = append(noShed, shed...)

	preKnee := func(points []OverloadPoint) (pre, max int64) {
		var bestPre float64
		for _, p := range points {
			if p.Multiplier < 1 && p.Multiplier > bestPre {
				bestPre, pre = p.Multiplier, p.P99Us
			}
			if p.Multiplier == overloadMultipliers[len(overloadMultipliers)-1] {
				max = p.P99Us
			}
		}
		return pre, max
	}
	rep.NoShedPreKneeP99Us, rep.NoShedMaxLoadP99Us = preKnee(noShed)
	rep.ShedPreKneeP99Us, rep.ShedMaxLoadP99Us = preKnee(shed)
	if rep.NoShedPreKneeP99Us > 0 {
		rep.NoShedBoundX = float64(rep.NoShedMaxLoadP99Us) / float64(rep.NoShedPreKneeP99Us)
	}
	if rep.ShedPreKneeP99Us > 0 {
		rep.ShedBoundX = float64(rep.ShedMaxLoadP99Us) / float64(rep.ShedPreKneeP99Us)
	}
	if w != nil {
		fmt.Fprintf(w, "  admitted-request p99 at %.1fx vs pre-knee: shed %.1fx, no-shed %.1fx\n",
			overloadMultipliers[len(overloadMultipliers)-1], rep.ShedBoundX, rep.NoShedBoundX)
	}

	if outPath != "" {
		if err := writeOverloadReport(rep, outPath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeOverloadReport stores the report as indented JSON.
func writeOverloadReport(rep *OverloadReport, path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
