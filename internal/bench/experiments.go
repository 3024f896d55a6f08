// Package bench is the experiment harness: it runs the Retwis workloads
// against the aggregated deployment (cluster.StartLocal) and the
// disaggregated baseline (baseline.StartLocal) on loopback TCP and
// regenerates every table and figure of the paper's evaluation — Figure 1
// (normalized Retwis throughput), Figure 2 (median + p99 latency), Table 1's
// measurable latency bands — plus the ablations called out in DESIGN.md.
package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"lambdastore/internal/baseline"
	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/workload"
)

// Options scales an experiment run. The paper's full configuration is
// Accounts=10000, Concurrency=100, Replicas=3; tests use smaller values.
type Options struct {
	Accounts       int
	Concurrency    int
	OpsPerWorkload int
	Replicas       int // storage nodes per group (1 primary + N-1 backups)
	NetDelay       time.Duration
	DataRoot       string // parent directory for node data (temp if empty)
	// Node is every aggregated node's configuration — result cache, fuel,
	// scheduler, WAL durability, admission plane. The baseline's compute
	// node runs under the same fuel budget.
	Node cluster.NodeOptions
}

// DefaultOptions returns a laptop-scale configuration.
func DefaultOptions() Options {
	return Options{
		Accounts:       10000,
		Concurrency:    100,
		OpsPerWorkload: 5000,
		Replicas:       3,
		Node:           cluster.NodeOptions{Runtime: core.Options{CacheEntries: 64 << 10}},
	}
}

// clientOpts builds the RPC options with injected network delay.
func (o *Options) clientOpts() *rpc.ClientOptions {
	return &rpc.ClientOptions{Delay: o.NetDelay, Timeout: 120 * time.Second}
}

// RetwisResults holds one architecture's measurements across workloads.
type RetwisResults struct {
	Deployment string
	Results    map[string]workload.Result
}

// RunRetwis populates a deployment and drives the paper's three workloads
// (§5): Post, GetTimeline, Follow.
func RunRetwis(d *Deployment, opts Options) (*RetwisResults, error) {
	cfg := workload.DefaultConfig(opts.Accounts)
	if err := workload.Populate(cfg, d.Create, d.Invoker); err != nil {
		return nil, fmt.Errorf("bench: populate %s: %w", d.Name, err)
	}
	out := &RetwisResults{Deployment: d.Name, Results: make(map[string]workload.Result)}
	for _, wl := range workload.Workloads {
		res, err := workload.RunClosedLoop(cfg, wl, d.Invoker, opts.Concurrency, opts.OpsPerWorkload)
		if err != nil {
			return nil, fmt.Errorf("bench: %s %s: %w", d.Name, wl, err)
		}
		out.Results[wl] = res
	}
	return out, nil
}

// RunComparison boots both architectures and runs the Retwis suite on each
// (the measurements behind Figures 1 and 2).
func RunComparison(opts Options) (agg, dis *RetwisResults, err error) {
	aggD, err := StartAggregated(opts)
	if err != nil {
		return nil, nil, err
	}
	agg, err = RunRetwis(aggD, opts)
	aggD.Close()
	if err != nil {
		return nil, nil, err
	}

	disD, err := StartDisaggregated(opts, baseline.ComputeOptions{})
	if err != nil {
		return nil, nil, err
	}
	dis, err = RunRetwis(disD, opts)
	disD.Close()
	if err != nil {
		return nil, nil, err
	}
	return agg, dis, nil
}

// PrintFigure1 renders the paper's Figure 1: per-workload throughput of
// both architectures, normalized to the aggregated design, with absolute
// jobs/s annotated (the paper annotates 1309/492 etc. above the bars).
func PrintFigure1(w io.Writer, agg, dis *RetwisResults) {
	fmt.Fprintln(w, "Figure 1: Normalized throughput of the ReTwis benchmark")
	fmt.Fprintf(w, "%-12s  %-22s  %-22s  %s\n", "Workload", "Aggregated (jobs/s)", "Disaggregated (jobs/s)", "Agg/Dis")
	for _, wl := range workload.Workloads {
		a := agg.Results[wl]
		d := dis.Results[wl]
		ratio := 0.0
		if d.Throughput > 0 {
			ratio = a.Throughput / d.Throughput
		}
		fmt.Fprintf(w, "%-12s  %10.1f (1.00x)     %10.1f (%.2fx)       %.2fx\n",
			wl, a.Throughput, d.Throughput, safeDiv(d.Throughput, a.Throughput), ratio)
	}
}

// PrintFigure2 renders the paper's Figure 2: median and p99 latency per
// workload for both architectures.
func PrintFigure2(w io.Writer, agg, dis *RetwisResults) {
	fmt.Fprintln(w, "Figure 2: Latencies of the ReTwis benchmark (median / p99)")
	fmt.Fprintf(w, "%-12s  %-26s  %-26s\n", "Workload", "Aggregated", "Disaggregated")
	for _, wl := range workload.Workloads {
		a := agg.Results[wl]
		d := dis.Results[wl]
		fmt.Fprintf(w, "%-12s  %10v / %-12v  %10v / %-12v\n",
			wl, a.Latency.Quantile(0.5), a.Latency.Quantile(0.99), d.Latency.Quantile(0.5), d.Latency.Quantile(0.99))
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Table1Row is one measured latency band of Table 1.
type Table1Row struct {
	System     string
	PaperBand  string
	Median     time.Duration
	P99        time.Duration
	Throughput float64
}

// RunTable1 measures the latency bands behind the paper's Table 1
// comparison using the GetTimeline+Post mix on small deployments:
//
//   - "Custom service": the application logic compiled into the process,
//     no isolation runtime and no network — the hand-built microservice
//     bound (paper band: <1ms).
//   - "LambdaObjects": the aggregated architecture (paper band: 1-10ms
//     on a real network; loopback is faster but the ordering holds).
//   - "Conventional serverless (warm)": the disaggregated baseline.
//   - "Conventional serverless (cold)": the baseline paying a cold start
//     per invocation — fresh VM instantiation plus the request-log hop
//     (paper band: >100ms with container starts; our VM "containers" are
//     far cheaper, so the shape, not the constant, is reproduced).
func RunTable1(opts Options) ([]Table1Row, error) {
	var rows []Table1Row
	ops := opts.OpsPerWorkload
	if ops <= 0 {
		ops = 2000
	}

	// --- Custom service: native Go against a local store. ---
	customDir, err := os.MkdirTemp(opts.DataRoot, "lambdastore-table1-custom-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(customDir)
	db, err := store.Open(customDir, nil)
	if err != nil {
		return nil, err
	}
	custom, err := measureCustom(db, opts, ops)
	db.Close()
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		System: "Custom (micro-)service", PaperBand: "<1ms",
		Median: custom.Latency.Quantile(0.5), P99: custom.Latency.Quantile(0.99), Throughput: custom.Throughput,
	})

	// --- LambdaObjects (aggregated). ---
	aggD, err := StartAggregated(opts)
	if err != nil {
		return nil, err
	}
	aggRes, err := measureMix(aggD, opts, ops)
	aggD.Close()
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		System: "LambdaObjects", PaperBand: "1-10ms",
		Median: aggRes.Latency.Quantile(0.5), P99: aggRes.Latency.Quantile(0.99), Throughput: aggRes.Throughput,
	})

	// --- Conventional serverless, warm path. ---
	disD, err := StartDisaggregated(opts, baseline.ComputeOptions{})
	if err != nil {
		return nil, err
	}
	disRes, err := measureMix(disD, opts, ops)
	disD.Close()
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		System: "Conventional serverless (warm)", PaperBand: ">100ms (with cold starts)",
		Median: disRes.Latency.Quantile(0.5), P99: disRes.Latency.Quantile(0.99), Throughput: disRes.Throughput,
	})

	// --- Conventional serverless with per-invocation cold starts: no warm
	// instance pool, a documented provisioning penalty per instantiation
	// (the emulated container boot), and every job through the durable
	// request log, like a real FaaS front door. ---
	coldOpts := opts
	coldOpts.Replicas = 1
	coldD, err := StartDisaggregated(coldOpts, baseline.ComputeOptions{ColdStartPenalty: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	front := baseline.NewClient(coldD.Dis.LB.Addr(), opts.clientOpts())
	defer front.Close()
	coldD.Invoker = workload.InvokerFunc(front.Invoke)
	coldRes, err := measureMix(coldD, coldOpts, ops/4+1)
	coldD.Close()
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		System: "Conventional serverless (cold)", PaperBand: ">100ms",
		Median: coldRes.Latency.Quantile(0.5), P99: coldRes.Latency.Quantile(0.99), Throughput: coldRes.Throughput,
	})
	return rows, nil
}

// PrintTable1 renders the measured Table 1 rows.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1 (measured latency bands; GetTimeline/Post mix)")
	fmt.Fprintf(w, "%-32s  %-26s  %-12s %-12s %s\n", "System", "Paper band", "median", "p99", "jobs/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s  %-26s  %-12v %-12v %.1f\n", r.System, r.PaperBand, r.Median, r.P99, r.Throughput)
	}
}

// measureMix runs a 90/10 GetTimeline/Post mix (a web-application-like
// read-heavy profile) and returns the combined result.
func measureMix(d *Deployment, opts Options, ops int) (workload.Result, error) {
	cfg := workload.DefaultConfig(opts.Accounts)
	if err := workload.Populate(cfg, d.Create, d.Invoker); err != nil {
		return workload.Result{}, err
	}
	// 90% reads.
	res, err := workload.RunClosedLoop(cfg, workload.GetTimeline, d.Invoker, opts.Concurrency, ops*9/10)
	if err != nil {
		return workload.Result{}, err
	}
	post, err := workload.RunClosedLoop(cfg, workload.Post, d.Invoker, opts.Concurrency, ops/10+1)
	if err != nil {
		return workload.Result{}, err
	}
	total := res.Ops + post.Ops
	merged := workload.Result{
		Workload:   "Mix90/10",
		Ops:        total,
		Elapsed:    res.Elapsed + post.Elapsed,
		Throughput: float64(total) / (res.Elapsed + post.Elapsed).Seconds(),
		Latency:    res.Latency.Merge(post.Latency),
		Errors:     res.Errors + post.Errors,
	}
	return merged, nil
}

// measureCustom implements the Retwis operations as native Go functions
// against a local embedded store — the custom-microservice bound.
func measureCustom(db *store.DB, opts Options, ops int) (workload.Result, error) {
	inv := workload.InvokerFunc(func(object uint64, method string, args [][]byte) ([]byte, error) {
		id := core.ObjectID(object)
		switch method {
		case "create_account":
			return nil, db.Put(core.ValueFieldKey(id, "name"), args[0])
		case "add_follower":
			return nil, nativeListPush(db, id, "followers", args[0])
		case "create_post":
			entry := make([]byte, 16+len(args[0]))
			copy(entry[16:], args[0])
			if err := nativeListPush(db, id, "posts", entry); err != nil {
				return nil, err
			}
			return core.I64Bytes(0), nativeListPush(db, id, "timeline", entry)
		case "get_timeline":
			limit := core.BytesI64(args[0])
			n, err := nativeListLen(db, id, "timeline")
			if err != nil {
				return nil, err
			}
			start := int64(n) - limit
			if start < 0 {
				start = 0
			}
			var out []byte
			for i := start; i < int64(n); i++ {
				v, err := db.Get(core.ListEntryKey(id, "timeline", uint64(i)))
				if err != nil {
					return nil, err
				}
				out = append(out, core.I64Bytes(int64(len(v)))...)
				out = append(out, v...)
			}
			return out, nil
		default:
			return nil, fmt.Errorf("custom: unknown method %q", method)
		}
	})
	create := func(id uint64) error {
		return db.Put(core.HeaderKey(core.ObjectID(id)), []byte(retwis.TypeName))
	}
	cfg := workload.DefaultConfig(opts.Accounts)
	if err := workload.Populate(cfg, create, inv); err != nil {
		return workload.Result{}, err
	}
	return workload.RunClosedLoop(cfg, workload.GetTimeline, inv, opts.Concurrency, ops)
}

// nativeListPush is the custom-service list append (single-writer model).
func nativeListPush(db *store.DB, id core.ObjectID, field string, value []byte) error {
	var n uint64
	if v, err := db.Get(core.ListLenKey(id, field)); err == nil {
		n = core.DecodeU64(v)
	}
	b := store.NewBatch()
	b.Put(core.ListEntryKey(id, field, n), value)
	b.Put(core.ListLenKey(id, field), core.EncodeU64(n+1))
	return db.Write(b)
}

func nativeListLen(db *store.DB, id core.ObjectID, field string) (uint64, error) {
	v, err := db.Get(core.ListLenKey(id, field))
	if err != nil {
		if err == store.ErrNotFound {
			return 0, nil
		}
		return 0, err
	}
	return core.DecodeU64(v), nil
}
