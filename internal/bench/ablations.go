package bench

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"lambdastore/internal/baseline"
	"lambdastore/internal/vm"
	"lambdastore/internal/workload"
)

// AblationResult is one (configuration, measurement) pair.
type AblationResult struct {
	Config string
	Result workload.Result
}

// RunAblationCache measures A1: the consistent result cache on/off for the
// read-only GetTimeline workload on the aggregated architecture (§4.2.2).
// Caching targets functions "invoked frequently": the ablation therefore
// reads a small hot set of accounts repeatedly, the regime where cached
// results recur. (Uniform reads over a large population never repeat an
// invocation, so there the cache only adds read-set bookkeeping.)
func RunAblationCache(opts Options) ([]AblationResult, error) {
	var out []AblationResult
	for _, entries := range []int{0, 64 << 10} {
		o := opts
		o.Node.Runtime.CacheEntries = entries
		if o.Accounts > 64 {
			o.Accounts = 64
		}
		if o.OpsPerWorkload < 3000 {
			o.OpsPerWorkload = 3000
		}
		d, err := StartAggregated(o)
		if err != nil {
			return nil, err
		}
		cfg := workload.DefaultConfig(o.Accounts)
		if err := workload.Populate(cfg, d.Create, d.Invoker); err != nil {
			d.Close()
			return nil, err
		}
		res, err := workload.RunClosedLoop(cfg, workload.GetTimeline, d.Invoker, o.Concurrency, o.OpsPerWorkload)
		d.Close()
		if err != nil {
			return nil, err
		}
		name := "cache=off"
		if entries > 0 {
			name = "cache=on"
		}
		out = append(out, AblationResult{Config: name, Result: res})
	}
	return out, nil
}

// RunAblationReplication measures A2: the cost of primary-backup
// replication at factors 1 (no backups), 2 and 3 on the mutating Follow
// workload (§4.2.1).
func RunAblationReplication(opts Options) ([]AblationResult, error) {
	var out []AblationResult
	for _, replicas := range []int{1, 2, 3} {
		o := opts
		o.Replicas = replicas
		d, err := StartAggregated(o)
		if err != nil {
			return nil, err
		}
		cfg := workload.DefaultConfig(o.Accounts)
		if err := workload.Populate(cfg, d.Create, d.Invoker); err != nil {
			d.Close()
			return nil, err
		}
		res, err := workload.RunClosedLoop(cfg, workload.Follow, d.Invoker, o.Concurrency, o.OpsPerWorkload)
		d.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Config: fmt.Sprintf("replicas=%d", replicas), Result: res})
	}
	return out, nil
}

// SchedProbe reports the A4 correctness probe for one configuration: how
// many concurrent single-object updates were issued, how many failed with
// an error (load-dependent: admission timeouts under a saturated machine),
// and how many survived into the committed follower count. With the
// scheduler on, every acknowledged update survives; with it off, lost
// updates make Survived fall short.
type SchedProbe struct {
	Config   string
	Issued   int
	Failed   int
	Survived int64
}

// Note renders the probe as a harness output line.
func (p SchedProbe) Note() string {
	return fmt.Sprintf("%s: %d/%d concurrent single-object updates survived (%d probe errors)",
		p.Config, p.Survived, p.Issued, p.Failed)
}

// ProbeNotes renders probes for PrintAblation.
func ProbeNotes(probes []SchedProbe) []string {
	notes := make([]string, len(probes))
	for i, p := range probes {
		notes[i] = p.Note()
	}
	return notes
}

// retryInvoke tolerates transient load-dependent failures (admission
// timeouts while the suite saturates the machine) on control-plane reads.
func retryInvoke(inv workload.Invoker, id uint64, method string, args [][]byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		res, err := inv.Invoke(id, method, args)
		if err == nil {
			return res, nil
		}
		lastErr = err
		time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
	}
	return nil, lastErr
}

// RunAblationSched measures A4: per-object scheduling (the combined
// scheduler/concurrency-control of §4.2) versus no admission control. With
// the scheduler disabled, invocation isolation is lost — the harness also
// reports the resulting lost updates to make the correctness cost visible.
func RunAblationSched(opts Options) ([]AblationResult, []SchedProbe, error) {
	var out []AblationResult
	var probesOut []SchedProbe
	for _, disabled := range []bool{false, true} {
		o := opts
		o.Node.Runtime.DisableScheduler = disabled
		d, err := StartAggregated(o)
		if err != nil {
			return nil, nil, err
		}
		cfg := workload.DefaultConfig(o.Accounts)
		if err := workload.Populate(cfg, d.Create, d.Invoker); err != nil {
			d.Close()
			return nil, nil, err
		}
		res, err := workload.RunClosedLoop(cfg, workload.Follow, d.Invoker, o.Concurrency, o.OpsPerWorkload)
		if err != nil {
			d.Close()
			return nil, nil, err
		}

		// Correctness probe: hammer one object with concurrent follower
		// additions and compare the final count with the issued count.
		// Individual probes may fail under load (admission timeouts); they
		// are counted rather than ignored so callers can assert the
		// invariant over the acknowledged updates only.
		probeID := cfg.AccountID(0)
		before, err := retryInvoke(d.Invoker, probeID, "follower_count", nil)
		if err != nil {
			d.Close()
			return nil, nil, err
		}
		const probes = 200
		var failed atomic.Int64
		sem := make(chan struct{}, o.Concurrency)
		for i := 0; i < probes; i++ {
			sem <- struct{}{}
			go func(i int) {
				defer func() { <-sem }()
				if _, err := d.Invoker.Invoke(probeID, "add_follower", [][]byte{i64(int64(900000 + i))}); err != nil {
					failed.Add(1)
				}
			}(i)
		}
		for i := 0; i < cap(sem); i++ {
			sem <- struct{}{}
		}
		after, err := retryInvoke(d.Invoker, probeID, "follower_count", nil)
		d.Close()
		if err != nil {
			return nil, nil, err
		}
		gained := i64dec(after) - i64dec(before)
		name := "scheduler=on"
		if disabled {
			name = "scheduler=off"
		}
		out = append(out, AblationResult{Config: name, Result: res})
		probesOut = append(probesOut, SchedProbe{
			Config:   name,
			Issued:   probes,
			Failed:   int(failed.Load()),
			Survived: gained,
		})
	}
	return out, probesOut, nil
}

// RunAblationNetDelay measures A5: the aggregated/disaggregated gap as the
// injected one-way network delay grows — disaggregation pays the delay per
// storage operation, aggregation once per job.
func RunAblationNetDelay(opts Options, delays []time.Duration) (map[time.Duration][2]workload.Result, error) {
	out := make(map[time.Duration][2]workload.Result)
	for _, delay := range delays {
		o := opts
		o.NetDelay = delay
		agg, dis, err := runOneWorkloadBoth(o, workload.Post)
		if err != nil {
			return nil, err
		}
		out[delay] = [2]workload.Result{agg, dis}
	}
	return out, nil
}

// runOneWorkloadBoth runs a single workload on both architectures.
func runOneWorkloadBoth(opts Options, wl string) (agg, dis workload.Result, err error) {
	aggD, err := StartAggregated(opts)
	if err != nil {
		return agg, dis, err
	}
	cfg := workload.DefaultConfig(opts.Accounts)
	if err = workload.Populate(cfg, aggD.Create, aggD.Invoker); err != nil {
		aggD.Close()
		return agg, dis, err
	}
	agg, err = workload.RunClosedLoop(cfg, wl, aggD.Invoker, opts.Concurrency, opts.OpsPerWorkload)
	aggD.Close()
	if err != nil {
		return agg, dis, err
	}

	disD, err := StartDisaggregated(opts, baseline.ComputeOptions{})
	if err != nil {
		return agg, dis, err
	}
	if err = workload.Populate(cfg, disD.Create, disD.Invoker); err != nil {
		disD.Close()
		return agg, dis, err
	}
	dis, err = workload.RunClosedLoop(cfg, wl, disD.Invoker, opts.Concurrency, opts.OpsPerWorkload)
	disD.Close()
	return agg, dis, err
}

// FuelAblation measures A3: the interpreter's metering overhead by running
// a compute-bound guest loop with and without a fuel budget.
func FuelAblation(iterations int) (metered, unmetered time.Duration, err error) {
	src := `
func spinsum params=1 locals=2
  push 0
  local.set 1
  push 0
  local.set 2
loop:
  local.get 2
  local.get 0
  ge_s
  jnz done
  local.get 1
  local.get 2
  add
  local.set 1
  local.get 2
  push 1
  add
  local.set 2
  jmp loop
done:
  local.get 1
  ret
end`
	mod, err := vm.Assemble(src)
	if err != nil {
		return 0, 0, err
	}
	run := func(fuel int64) (time.Duration, error) {
		inst, err := vm.NewInstance(mod, nil, fuel)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := inst.Call("spinsum", int64(iterations)); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	if metered, err = run(int64(iterations)*16 + 1024); err != nil {
		return 0, 0, err
	}
	if unmetered, err = run(0); err != nil {
		return 0, 0, err
	}
	return metered, unmetered, nil
}

// PrintAblation renders ablation rows.
func PrintAblation(w io.Writer, title string, results []AblationResult, notes []string) {
	fmt.Fprintln(w, title)
	for _, r := range results {
		fmt.Fprintf(w, "  %-16s %s\n", r.Config, r.Result)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// i64 and i64dec are tiny local codecs for probe arguments.
func i64(v int64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func i64dec(b []byte) int64 {
	var v int64
	for i := 0; i < 8 && i < len(b); i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}
