package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/fault"
	"lambdastore/internal/rebalance"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/workload"
)

// Rebalance bench: the many-group placement and live-migration story
// (DESIGN.md §13) measured end to end.
//
// Sweep 1 — throughput vs group count. One single-node replica group per
// shard, uniform Post workload. On one shared machine every group rides
// the same cores, so raw CPU would flatten the curve; instead each node's
// capacity is modeled, not measured, with an injected per-frame receive
// delay: the fault plane's SiteRPCRecv rule sleeps once per decoded
// request frame in the server's per-connection read loop — however many
// frames the client's writer coalesced into one conn.Write — and the bench
// client holds exactly one connection per node, so a node admits at most
// 1/delay requests per second. More groups = more aggregate admission
// capacity, exactly the effect partitioned placement buys on real
// hardware; the resulting throughput is the model's, never a capacity
// figure for this code.
//
// Sweep 2 — Zipf hot-spot convergence. Same capacity model at a fixed
// group count, but the per-op key choice is Zipf(1.1)-skewed with the
// hotspot stride equal to the group count, so under id-mod-groups
// placement every hot key hashes to the SAME group (the correlated
// collision worst case). Measured with the rebalancer off (the hot group
// is the whole cluster's throughput) and on (hot objects migrate out one
// by one until the hysteresis margin mutes the planner); the artifact
// records steady-state throughput for both and the cumulative move count
// over time — the plateau is the policy's anti-oscillation evidence.
var rebalanceGroupCounts = []int{1, 4, 16, 48}

const (
	// rebalancePerNodeDelay is each node's modeled admission interval:
	// one inbound frame per 500µs ≈ 2,000 requests/second/group.
	rebalancePerNodeDelay = 500 * time.Microsecond
	// rebalanceZipfS is the hot-spot skew for sweep 2.
	rebalanceZipfS = 1.1
	// rebalanceConvergenceGroups is sweep 2's group count.
	rebalanceConvergenceGroups = 16
)

// RebalanceGroupPoint is one group-count measurement of sweep 1.
type RebalanceGroupPoint struct {
	Groups        int     `json:"groups"`
	Ops           uint64  `json:"ops"`
	ThroughputOps float64 `json:"throughput_ops_sec"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	Errors        uint64  `json:"errors"`
	// SpeedupVsOne normalizes against the 1-group point.
	SpeedupVsOne float64 `json:"speedup_vs_one_group"`
}

// RebalanceMovesSample is one point of the convergence timeline.
type RebalanceMovesSample struct {
	AtSeconds       float64 `json:"at_seconds"`
	CumulativeMoves uint64  `json:"cumulative_moves"`
}

// RebalanceConvergence is sweep 2's rebalancer-off vs -on comparison.
type RebalanceConvergence struct {
	Groups       int     `json:"groups"`
	HotspotZipfS float64 `json:"hotspot_zipf_s"`
	// Steady-state Post throughput with the planner off: the single hot
	// group is the whole cluster's admission capacity.
	OffThroughput float64 `json:"rebalancer_off_ops_sec"`
	OffP99Ms      float64 `json:"rebalancer_off_p99_ms"`
	OffErrors     uint64  `json:"rebalancer_off_errors"`
	// Steady-state throughput after the planner converged.
	OnThroughput float64 `json:"rebalancer_on_ops_sec"`
	OnP99Ms      float64 `json:"rebalancer_on_p99_ms"`
	OnErrors     uint64  `json:"rebalancer_on_errors"`
	// ConvergedAtSeconds is when the cumulative move count first reached
	// its final value (from the timeline; 0 when no moves fired).
	ConvergedAtSeconds float64 `json:"converged_at_seconds"`
	// OnOverOff is the headline ratio (the issue's bar is >=1.5x).
	OnOverOff float64 `json:"on_over_off"`
	// TotalMoves counts executed live migrations across the whole on-run.
	TotalMoves uint64 `json:"total_moves"`
	MoveErrors uint64 `json:"move_errors"`
	// MovesDuringMeasure is how many fired inside the steady-state
	// measurement window — the plateau check (hysteresis + cooldown must
	// mute the planner once balanced, not oscillate objects around).
	MovesDuringMeasure uint64                 `json:"moves_during_measure"`
	Plateaued          bool                   `json:"moves_plateaued"`
	Timeline           []RebalanceMovesSample `json:"moves_timeline"`
	// Overrides is the directory override-table size after convergence
	// (every migrated object away from its hash home costs one entry).
	Overrides int `json:"directory_overrides"`
}

// RebalanceReport is the results/BENCH_rebalance.json document.
type RebalanceReport struct {
	GeneratedBy    string                `json:"generated_by"`
	Accounts       int                   `json:"accounts"`
	Concurrency    int                   `json:"concurrency"`
	PerNodeDelayUs int64                 `json:"per_node_recv_delay_us"`
	GroupSweep     []RebalanceGroupPoint `json:"group_sweep"`
	Convergence    RebalanceConvergence  `json:"zipf_convergence"`
}

// startRebalanceCluster boots `groups` single-node groups sharing one
// static directory (nodes and client see cutovers the instant the move
// commits them). Callers reset the fault plane after closing it: the
// capacity rules live there, and the plane is process-global.
func startRebalanceCluster(opts Options, groups int) (*Deployment, error) {
	// A second admission bound alongside the frame delay: at most 8
	// invocations executing per node, like a real per-node worker pool.
	opts.Node.MaxConcurrentInvokes = 8
	topology := make([]int, groups)
	for g := range topology {
		topology[g] = 1
	}
	return StartAggregated(opts, topology...)
}

// populateFlat creates the accounts with NO follower edges: create_post
// then stays a single-object write (no store_post fan-out), so a group's
// observed load is exactly its keys' load and the capacity model is
// per-key. Runs before the capacity rules are installed.
func populateFlat(cfg workload.Config, d *Deployment) error {
	const parallel = 32
	jobs := make(chan int, parallel)
	errs := make(chan error, parallel)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				id := cfg.AccountID(i)
				if err := d.Create(id); err != nil {
					errs <- fmt.Errorf("create %d: %w", id, err)
					return
				}
				name := fmt.Sprintf("user%06d", i)
				if _, err := d.Invoker.Invoke(id, "create_account", [][]byte{[]byte(name)}); err != nil {
					errs <- fmt.Errorf("create_account %d: %w", id, err)
					return
				}
			}
		}()
	}
	var sendErr error
fill:
	for i := 0; i < cfg.Accounts; i++ {
		select {
		case sendErr = <-errs:
			break fill
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// installCapacityRules arms the per-node admission delay.
func installCapacityRules(nodes []*cluster.Node) {
	for _, n := range nodes {
		fault.Add(fault.Rule{
			Site:   fault.SiteRPCRecv,
			Key:    n.Addr(),
			Action: fault.Delay,
			Delay:  rebalancePerNodeDelay,
		})
	}
}

// rebalanceOps scales per-point operation counts with capacity so each
// point runs about as long regardless of group count.
func rebalanceOps(opts Options, groups int) int {
	ops := opts.OpsPerWorkload * groups
	if max := opts.OpsPerWorkload * 12; ops > max {
		ops = max
	}
	return ops
}

// runRebalanceGroupPoint measures uniform Post throughput at one group count.
func runRebalanceGroupPoint(opts Options, groups int) (RebalanceGroupPoint, error) {
	out := RebalanceGroupPoint{Groups: groups}
	d, err := startRebalanceCluster(opts, groups)
	if err != nil {
		return out, err
	}
	defer fault.Reset()
	defer d.Close()
	cfg := workload.DefaultConfig(opts.Accounts)
	if err := populateFlat(cfg, d); err != nil {
		return out, err
	}
	installCapacityRules(d.Agg.Nodes())
	res, err := workload.RunClosedLoop(cfg, workload.Post, d.Invoker, opts.Concurrency, rebalanceOps(opts, groups))
	if err != nil {
		return out, err
	}
	out.Ops = res.Ops
	out.ThroughputOps = res.Throughput
	out.P50Ms = float64(res.Latency.Quantile(0.5)) / float64(time.Millisecond)
	out.P99Ms = float64(res.Latency.Quantile(0.99)) / float64(time.Millisecond)
	out.Errors = res.Errors
	return out, nil
}

// runRebalanceConvergence measures the Zipf hot-spot workload with the
// planner off or on. With it on, a background loop drives Tick every
// 250ms (observe, plan, execute) and samples the cumulative move count
// once a second for the timeline.
func runRebalanceConvergence(opts Options, on bool, conv *RebalanceConvergence) error {
	groups := rebalanceConvergenceGroups
	d, err := startRebalanceCluster(opts, groups)
	if err != nil {
		return err
	}
	defer fault.Reset()
	defer d.Close()
	cfg := workload.DefaultConfig(opts.Accounts)
	cfg.HotspotS = rebalanceZipfS
	// Stride = group count: every Zipf rank maps to a key that is
	// congruent mod the group count — all hot keys pile onto one group.
	cfg.HotspotStride = uint64(groups)
	if err := populateFlat(cfg, d); err != nil {
		return err
	}
	installCapacityRules(d.Agg.Nodes())

	var (
		reb      *rebalance.Rebalancer
		stop     chan struct{}
		tickWG   sync.WaitGroup
		timeline []RebalanceMovesSample
	)
	if on {
		pool := rpc.NewPool(opts.clientOpts())
		defer pool.Close()
		reb = rebalance.New(rebalance.Options{
			Pool:     pool,
			Config:   func() (*shard.Directory, error) { return d.Agg.Dir, nil },
			Interval: 250 * time.Millisecond,
			Policy: rebalance.PolicyConfig{
				// Short cooldown: the bench's whole run fits in a few
				// default cooldowns; the plateau must come from the
				// hysteresis margin, not from every object still cooling.
				Cooldown: 2 * time.Second,
			},
		})
		defer reb.Close()
		stop = make(chan struct{})
		start := time.Now()
		tickWG.Add(1)
		go func() {
			defer tickWG.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			n := 0
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				reb.Tick()
				n++
				if n%4 == 0 {
					timeline = append(timeline, RebalanceMovesSample{
						AtSeconds:       time.Since(start).Seconds(),
						CumulativeMoves: reb.Moves(),
					})
				}
			}
		}()
	}

	warmOps := opts.OpsPerWorkload * 4
	measureOps := opts.OpsPerWorkload * 4
	// Warm phase: with the planner on this is the convergence window —
	// hot objects migrate out under full load.
	warm, err := workload.RunClosedLoop(cfg, workload.Post, d.Invoker, opts.Concurrency, warmOps)
	if err != nil {
		return err
	}
	var movesAtMeasure uint64
	if reb != nil {
		movesAtMeasure = reb.Moves()
	}
	meas, err := workload.RunClosedLoop(cfg, workload.Post, d.Invoker, opts.Concurrency, measureOps)
	if err != nil {
		return err
	}
	if stop != nil {
		close(stop)
		tickWG.Wait()
	}

	if on {
		st := reb.Status()
		conv.OnThroughput = meas.Throughput
		conv.OnP99Ms = float64(meas.Latency.Quantile(0.99)) / float64(time.Millisecond)
		conv.OnErrors = warm.Errors + meas.Errors
		for _, s := range timeline {
			if s.CumulativeMoves == st.Moves {
				conv.ConvergedAtSeconds = s.AtSeconds
				break
			}
		}
		conv.TotalMoves = st.Moves
		conv.MoveErrors = st.MoveErrors
		conv.MovesDuringMeasure = st.Moves - movesAtMeasure
		// A converged planner fires at most a stray move or two once the
		// cooldowns from the convergence window expire.
		conv.Plateaued = conv.MovesDuringMeasure <= 2
		conv.Timeline = timeline
		conv.Overrides = d.Agg.Dir.OverrideCount()
	} else {
		conv.OffThroughput = meas.Throughput
		conv.OffP99Ms = float64(meas.Latency.Quantile(0.99)) / float64(time.Millisecond)
		conv.OffErrors = warm.Errors + meas.Errors
	}
	return nil
}

// RunRebalance runs both sweeps and writes results/BENCH_rebalance.json.
// An empty outPath skips the artifact.
func RunRebalance(opts Options, outPath string, w io.Writer) (*RebalanceReport, error) {
	rep := &RebalanceReport{
		GeneratedBy:    "make bench-rebalance",
		Accounts:       opts.Accounts,
		Concurrency:    opts.Concurrency,
		PerNodeDelayUs: rebalancePerNodeDelay.Microseconds(),
	}
	if w != nil {
		fmt.Fprintf(w, "Rebalance: many-group placement (uniform Post, %v/frame per-node admission)\n", rebalancePerNodeDelay)
	}
	for _, g := range rebalanceGroupCounts {
		p, err := runRebalanceGroupPoint(opts, g)
		if err != nil {
			return nil, fmt.Errorf("bench: rebalance groups=%d: %w", g, err)
		}
		if base := rep.GroupSweep; len(base) > 0 && base[0].ThroughputOps > 0 {
			p.SpeedupVsOne = p.ThroughputOps / base[0].ThroughputOps
		} else {
			p.SpeedupVsOne = 1
		}
		rep.GroupSweep = append(rep.GroupSweep, p)
		if w != nil {
			fmt.Fprintf(w, "  groups=%-3d thr=%9.1f ops/s  p50=%6.2fms p99=%6.2fms  x%.2f vs 1 group\n",
				p.Groups, p.ThroughputOps, p.P50Ms, p.P99Ms, p.SpeedupVsOne)
		}
	}

	conv := &rep.Convergence
	conv.Groups = rebalanceConvergenceGroups
	conv.HotspotZipfS = rebalanceZipfS
	if w != nil {
		fmt.Fprintf(w, "Rebalance: Zipf(%.1f) hot spot, stride=group count (all hot keys on one group), %d groups\n",
			rebalanceZipfS, rebalanceConvergenceGroups)
	}
	if err := runRebalanceConvergence(opts, false, conv); err != nil {
		return nil, fmt.Errorf("bench: rebalance zipf off: %w", err)
	}
	if err := runRebalanceConvergence(opts, true, conv); err != nil {
		return nil, fmt.Errorf("bench: rebalance zipf on: %w", err)
	}
	if conv.OffThroughput > 0 {
		conv.OnOverOff = conv.OnThroughput / conv.OffThroughput
	}
	if w != nil {
		fmt.Fprintf(w, "  rebalancer off: %9.1f ops/s p99=%6.2fms (errs %d)\n",
			conv.OffThroughput, conv.OffP99Ms, conv.OffErrors)
		fmt.Fprintf(w, "  rebalancer on:  %9.1f ops/s p99=%6.2fms (errs %d)  %.2fx, %d moves (converged %.1fs, %d during measure, plateaued=%v), %d overrides\n",
			conv.OnThroughput, conv.OnP99Ms, conv.OnErrors, conv.OnOverOff, conv.TotalMoves,
			conv.ConvergedAtSeconds, conv.MovesDuringMeasure, conv.Plateaued, conv.Overrides)
	}

	if outPath != "" {
		if err := writeRebalanceReport(rep, outPath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeRebalanceReport stores the report as indented JSON.
func writeRebalanceReport(rep *RebalanceReport, path string) error {
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
