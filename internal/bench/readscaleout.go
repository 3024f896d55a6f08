package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/workload"
)

// The read-scaleout experiment (EXPERIMENTS.md A11) measures what leases
// buy: with reads pinned to the primary, one node's request admission is
// the whole group's read capacity; with leased backups every replica
// serves consistent reads, so capacity grows with the replication factor.
//
// Loopback RPC admits far more requests than any real NIC, so each node
// gets an injected per-request admission delay (readScaleoutAdmission in
// the server's connection read loop — the same serialization point a real
// transport has). That caps one node at roughly 1/admission req/s and
// makes the capacity model visible at laptop scale: 3 leased replicas
// admit ~3x what the primary alone admits.
const (
	readScaleoutAdmission = 500 * time.Microsecond
	readScaleoutWritePct  = 10 // mixed-run write percentage

	// readScaleoutMixedClients pins the mixed 90/10 comparison at the
	// knee of the capacity curve rather than deep saturation. Past
	// saturation a closed loop's client-observed latency is queueing by
	// Little's law — and since the leased deployment sustains ~2x the op
	// rate at equal client count, writes arrive twice as fast at the same
	// fixed-capacity primary, which measures load redistribution, not
	// lease protocol cost. At the knee both configurations carry the same
	// offered write load and the delta isolates what leasing adds to the
	// write path (piggybacked grants, renewals, backup apply contention).
	readScaleoutMixedClients = 8
)

// readPathPosts posts are seeded per hot account and readPathLimit are
// read back per GetTimeline, so each op traverses a real timeline: a
// cache hit re-validates ~readPathLimit read dependencies and a miss
// re-executes a real VM scan. The default GetTimeline op reads 10 posts
// of an unseeded (empty) timeline, which measures only RPC dispatch.
const (
	readPathPosts = 40
	readPathLimit = 40
	// readPathMsgLen is deliberately small: the response payload is floor
	// cost every configuration pays.
	readPathMsgLen = 24
)

// readScaleoutClients are the closed-loop client counts swept per config.
var readScaleoutClients = []int{1, 8, 64}

// ReadScaleoutPoint is one (config, clients) read-throughput measurement.
type ReadScaleoutPoint struct {
	Config     string  `json:"config"`
	Clients    int     `json:"clients"`
	Ops        uint64  `json:"ops"`
	Throughput float64 `json:"throughput_ops_per_sec"`
	P50Micros  int64   `json:"p50_us"`
	P99Micros  int64   `json:"p99_us"`
	Errors     uint64  `json:"errors"`
	// BackupServed/PrimaryBounced are the lease telemetry counters summed
	// across the group over the measured run: how many reads backups
	// answered locally vs refused for want of a valid lease.
	BackupServed   uint64 `json:"reads_backup_served"`
	PrimaryBounced uint64 `json:"reads_primary_bounced"`
}

// ReadScaleoutMixed is one mixed 90/10 run's write-ack view: the latency
// of acknowledged writes while reads ride the same deployment. Both
// configs run the same nodes (leases are always granted; the grant
// piggybacks on the synchronous applyBatch frame) and differ only in the
// client's read policy, so the delta is what serving reads at the backups
// costs the write path — it must stay within a few percent.
type ReadScaleoutMixed struct {
	Config         string  `json:"config"`
	Clients        int     `json:"clients"`
	WriteOps       uint64  `json:"write_ops"`
	WriteP50Us     int64   `json:"write_p50_us"`
	WriteP99Us     int64   `json:"write_p99_us"`
	ReadOps        uint64  `json:"read_ops"`
	TotalOpsPerSec float64 `json:"total_ops_per_sec"`
	Errors         uint64  `json:"errors"`
}

// ReadScaleoutReport is the results/BENCH_read_scaleout.json document.
type ReadScaleoutReport struct {
	GeneratedBy string              `json:"generated_by"`
	Workload    string              `json:"workload"`
	Accounts    int                 `json:"accounts"`
	Ops         int                 `json:"ops"`
	Replicas    int                 `json:"replicas"`
	AdmissionUs int64               `json:"admission_delay_us"`
	Clients     []int               `json:"clients"`
	Results     []ReadScaleoutPoint `json:"results"`
	Mixed       []ReadScaleoutMixed `json:"mixed_90_10"`
	// Speedup64 is leased over primary-only read throughput at the highest
	// client count (the issue's headline number; want >= 2.5x on 3 replicas).
	Speedup64 float64 `json:"speedup_at_64_clients"`
	// WriteP99Delta is (leased - baseline)/baseline of the mixed run's
	// write-ack p99 — what backup-served reads cost write acks (want < 0.10).
	WriteP99Delta float64 `json:"write_p99_delta"`
}

// readScaleoutConfig names one read-routing configuration.
type readScaleoutConfig struct {
	name   string
	policy cluster.ReadPolicy
}

var readScaleoutConfigs = []readScaleoutConfig{
	{"primary-only", cluster.ReadPrimaryOnly},
	{"leased-rr", cluster.ReadRoundRobin},
}

// startReadScaleout boots a 3-replica aggregated deployment plus a client
// with the config's read policy, populates and warms the hot set, then
// arms the per-node admission throttle. The returned stop func disarms
// the throttle and tears everything down.
func startReadScaleout(opts Options, cfg readScaleoutConfig) (*Deployment, *cluster.Client, func(), error) {
	d, err := StartAggregated(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	client, err := cluster.NewClient(cluster.ClientConfig{
		Directory:  d.Agg.Dir,
		RPC:        opts.clientOpts(),
		ReadPolicy: cfg.policy,
	})
	if err != nil {
		d.Close()
		return nil, nil, nil, err
	}
	stop := func() {
		fault.Reset()
		client.Close()
		d.Close()
	}

	wcfg := workload.DefaultConfig(opts.Accounts)
	if err := workload.Populate(wcfg, d.Create, d.Invoker); err != nil {
		stop()
		return nil, nil, nil, err
	}
	if err := seedTimelines(wcfg, d.Invoker); err != nil {
		stop()
		return nil, nil, nil, err
	}
	// Warm every replica's result cache through the measurement client's
	// own routing (leased runs touch all replicas, the baseline only the
	// primary — exactly the caches each run will hit), with bounded
	// retries for the pre-first-grant window where backups still bounce.
	warm := func(worker int) (func() error, error) {
		rng := rand.New(rand.NewSource(workload.Seed + int64(worker)*7919))
		return func() error {
			id := wcfg.AccountID(rng.Intn(wcfg.Accounts))
			_, err := client.InvokeRead(core.ObjectID(id), "get_timeline", [][]byte{core.I64Bytes(readPathLimit)})
			return err
		}, nil
	}
	if _, err := workload.RunClosedLoopOps(workload.GetTimeline, warm, 16, 8*opts.Accounts*len(d.Agg.Slots)); err != nil {
		stop()
		return nil, nil, nil, err
	}

	// Arm the admission throttle only for the measured run — populate and
	// warmup would crawl under it.
	for _, n := range d.Agg.Nodes() {
		fault.Add(fault.Rule{Site: fault.SiteRPCRecv, Key: n.Addr(), Action: fault.Delay, Delay: readScaleoutAdmission, P: 1})
	}
	return d, client, stop, nil
}

// seedTimelines appends readPathPosts posts to every account's timeline
// (store_post directly, no follower fan-out) so GetTimeline reads real
// data.
func seedTimelines(cfg workload.Config, inv workload.Invoker) error {
	msg := make([]byte, readPathMsgLen)
	for i := range msg {
		msg[i] = byte('a' + i%26)
	}
	const parallel = 32
	jobs := make(chan uint64, parallel)
	errs := make(chan error, parallel)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range jobs {
				for p := 0; p < readPathPosts; p++ {
					author := cfg.AccountID(p % cfg.Accounts)
					args := [][]byte{core.I64Bytes(int64(author)), core.I64Bytes(int64(p)), msg}
					if _, err := inv.Invoke(id, "store_post", args); err != nil {
						errs <- fmt.Errorf("store_post %d: %w", id, err)
						return
					}
				}
			}
		}()
	}
	var sendErr error
	for i := 0; i < cfg.Accounts; i++ {
		select {
		case sendErr = <-errs:
		case jobs <- cfg.AccountID(i):
			continue
		}
		break
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

// leaseReadCounters sums the lease read-routing counters across the group.
func leaseReadCounters(d *Deployment) (served, bounced uint64) {
	for _, n := range d.Agg.Nodes() {
		reg := n.Metrics()
		served += reg.Counter("reads.backup_served").Value()
		bounced += reg.Counter("reads.primary_bounced").Value()
	}
	return served, bounced
}

// runReadScaleoutPoint measures pure read throughput for one config at
// one client count.
func runReadScaleoutPoint(opts Options, cfg readScaleoutConfig, clients int) (ReadScaleoutPoint, error) {
	out := ReadScaleoutPoint{Config: cfg.name, Clients: clients}
	d, client, stop, err := startReadScaleout(opts, cfg)
	if err != nil {
		return out, err
	}
	defer stop()

	wcfg := workload.DefaultConfig(opts.Accounts)
	baseServed, baseBounced := leaseReadCounters(d)
	ops := func(worker int) (func() error, error) {
		rng := rand.New(rand.NewSource(workload.Seed + 31 + int64(worker)*7919))
		return func() error {
			id := wcfg.AccountID(rng.Intn(wcfg.Accounts))
			_, err := client.InvokeRead(core.ObjectID(id), "get_timeline", [][]byte{core.I64Bytes(readPathLimit)})
			return err
		}, nil
	}
	res, err := workload.RunClosedLoopOps(workload.GetTimeline, ops, clients, opts.OpsPerWorkload)
	if err != nil {
		return out, err
	}
	served, bounced := leaseReadCounters(d)

	out.Ops = uint64(res.Ops)
	out.Throughput = res.Throughput
	out.P50Micros = int64(res.Latency.P50Us)
	out.P99Micros = int64(res.Latency.P99Us)
	out.Errors = res.Errors
	out.BackupServed = served - baseServed
	out.PrimaryBounced = bounced - baseBounced
	return out, nil
}

// runReadScaleoutMixed drives a 90/10 read/write mix and reports the
// write-ack latency distribution separately.
func runReadScaleoutMixed(opts Options, cfg readScaleoutConfig, clients int) (ReadScaleoutMixed, error) {
	out := ReadScaleoutMixed{Config: cfg.name, Clients: clients}
	_, client, stop, err := startReadScaleout(opts, cfg)
	if err != nil {
		return out, err
	}
	defer stop()

	wcfg := workload.DefaultConfig(opts.Accounts)
	writeHist := &telemetry.Histogram{}
	msg := make([]byte, readPathMsgLen)
	for i := range msg {
		msg[i] = byte('z' - i%26)
	}
	ops := func(worker int) (func() error, error) {
		rng := rand.New(rand.NewSource(workload.Seed + 67 + int64(worker)*7919))
		return func() error {
			id := wcfg.AccountID(rng.Intn(wcfg.Accounts))
			if rng.Intn(100) < readScaleoutWritePct {
				p := int64(rng.Uint64() >> 1)
				args := [][]byte{core.I64Bytes(int64(id)), core.I64Bytes(p), msg}
				t0 := time.Now()
				_, err := client.Invoke(core.ObjectID(id), "store_post", args)
				if err == nil {
					writeHist.Record(time.Since(t0))
				}
				return err
			}
			_, err := client.InvokeRead(core.ObjectID(id), "get_timeline", [][]byte{core.I64Bytes(readPathLimit)})
			return err
		}, nil
	}
	res, err := workload.RunClosedLoopOps("mixed-90-10", ops, clients, opts.OpsPerWorkload)
	if err != nil {
		return out, err
	}
	wsnap := writeHist.Data()
	out.WriteOps = wsnap.Count
	out.WriteP50Us = int64(wsnap.P50Us)
	out.WriteP99Us = int64(wsnap.P99Us)
	out.ReadOps = uint64(res.Ops) - wsnap.Count
	out.TotalOpsPerSec = res.Throughput
	out.Errors = res.Errors
	return out, nil
}

// RunReadScaleout sweeps read throughput vs client count for primary-only
// and leased routing on a 3-replica group, then runs the mixed 90/10
// write-ack comparison. An empty outPath skips the JSON artifact.
func RunReadScaleout(opts Options, outPath string, w io.Writer) (*ReadScaleoutReport, error) {
	if opts.Replicas < 3 {
		opts.Replicas = 3
	}
	if opts.Accounts > 64 {
		opts.Accounts = 64
	}
	if opts.OpsPerWorkload < 4000 {
		opts.OpsPerWorkload = 4000
	}

	rep := &ReadScaleoutReport{
		GeneratedBy: "make bench-read-scaleout",
		Workload:    workload.GetTimeline,
		Accounts:    opts.Accounts,
		Ops:         opts.OpsPerWorkload,
		Replicas:    opts.Replicas,
		AdmissionUs: readScaleoutAdmission.Microseconds(),
		Clients:     readScaleoutClients,
	}

	if w != nil {
		fmt.Fprintf(w, "Read scale-out: Retwis GetTimeline, %d replicas, %v/request admission\n",
			opts.Replicas, readScaleoutAdmission)
	}
	var baseAtMax, leasedAtMax float64
	for _, cfg := range readScaleoutConfigs {
		for _, clients := range readScaleoutClients {
			p, err := runReadScaleoutPoint(opts, cfg, clients)
			if err != nil {
				return nil, fmt.Errorf("bench: read-scaleout %s/%d: %w", cfg.name, clients, err)
			}
			rep.Results = append(rep.Results, p)
			if clients == readScaleoutClients[len(readScaleoutClients)-1] {
				switch cfg.name {
				case "primary-only":
					baseAtMax = p.Throughput
				case "leased-rr":
					leasedAtMax = p.Throughput
				}
			}
			if w != nil {
				fmt.Fprintf(w, "  %-13s c=%-3d thr=%9.1f ops/s  p50=%6dus p99=%6dus  backup=%d bounced=%d errs=%d\n",
					p.Config, p.Clients, p.Throughput, p.P50Micros, p.P99Micros,
					p.BackupServed, p.PrimaryBounced, p.Errors)
			}
		}
	}
	if baseAtMax > 0 {
		rep.Speedup64 = leasedAtMax / baseAtMax
	}
	if w != nil {
		fmt.Fprintf(w, "  read speedup at %d clients (leased vs primary-only): %.2fx\n",
			readScaleoutClients[len(readScaleoutClients)-1], rep.Speedup64)
	}

	mixedClients := readScaleoutMixedClients
	var baseP99, leasedP99 int64
	for _, cfg := range readScaleoutConfigs {
		m, err := runReadScaleoutMixed(opts, cfg, mixedClients)
		if err != nil {
			return nil, fmt.Errorf("bench: read-scaleout mixed %s: %w", cfg.name, err)
		}
		rep.Mixed = append(rep.Mixed, m)
		switch cfg.name {
		case "primary-only":
			baseP99 = m.WriteP99Us
		case "leased-rr":
			leasedP99 = m.WriteP99Us
		}
		if w != nil {
			fmt.Fprintf(w, "  mixed %-13s c=%-3d writes=%d wp50=%6dus wp99=%6dus total=%9.1f ops/s errs=%d\n",
				m.Config, m.Clients, m.WriteOps, m.WriteP50Us, m.WriteP99Us, m.TotalOpsPerSec, m.Errors)
		}
	}
	if baseP99 > 0 {
		rep.WriteP99Delta = float64(leasedP99-baseP99) / float64(baseP99)
	}
	if w != nil {
		fmt.Fprintf(w, "  mixed write-ack p99 delta (leased vs primary-only): %+.1f%%\n", 100*rep.WriteP99Delta)
	}

	if outPath != "" {
		if err := writeReadScaleoutReport(rep, outPath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeReadScaleoutReport stores the report as indented JSON.
func writeReadScaleoutReport(rep *ReadScaleoutReport, path string) error {
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
