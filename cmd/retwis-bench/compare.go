package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"lambdastore/internal/baseline"
	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/workload"
)

// config scales one run. The paper's is 10,000 accounts, 100 clients and
// 3 replicas.
type config struct {
	accounts, concurrency, ops, replicas int
	// delays is the injected one-way network delay per RPC; Figures 1–2
	// are measured once per entry, Table 1 at the first.
	delays   []time.Duration
	dataRoot string
}

// coldStart is Table 1's emulated provisioning time: a container or
// microVM boot, which this process cannot pay for real (its VM instances
// start in microseconds). The cold row is therefore modeled.
const coldStart = 100 * time.Millisecond

// system is one architecture under test.
type system int

const (
	custom system = iota
	lambdaObjects
	serverlessWarm
	serverlessCold
)

var (
	systemNames = [...]string{"Custom (micro-)service", "LambdaObjects", "Conventional serverless (warm)", "Conventional serverless (cold, modeled)"}
	paperBands  = [...]string{"<1ms", "1-10ms", ">100ms (with cold starts)", ">100ms"}
)

// figureRow is one workload of Figures 1–2 at one injected delay.
type figureRow struct {
	delay    time.Duration
	agg, dis workload.Result
	// disCalls is the disaggregated compute node's storage and nested RPCs
	// per job: the paper's per-operation argument as a count.
	disCalls float64
}

// bandRow is one latency band of Table 1.
type bandRow struct {
	sys system
	res workload.Result
}

// report is everything one run measured.
type report struct {
	figures []figureRow
	table1  []bandRow
}

// deployment is one running system with the Retwis type installed.
type deployment struct {
	inv    workload.Invoker
	create func(id uint64) error
	// reg is the disaggregated compute node's registry; nil elsewhere,
	// where a snapshot is empty.
	reg   *telemetry.Registry
	close func()
	// pop and clients are the population and closed-loop clients session
	// drives it with.
	pop     workload.Config
	clients int
}

// run measures Figures 1–2 at every delay, then Table 1.
func run(cfg config) (*report, error) {
	rep := &report{}
	for _, delay := range cfg.delays {
		rows := make([]figureRow, len(workload.Workloads))
		for _, sys := range []system{lambdaObjects, serverlessWarm} {
			err := session(cfg, delay, sys, func(d *deployment) error {
				for i, wl := range workload.Workloads {
					res, calls, err := d.measure(wl, cfg.ops)
					if err != nil {
						return err
					}
					rows[i].delay = delay
					if sys == lambdaObjects {
						rows[i].agg = res
					} else {
						rows[i].dis, rows[i].disCalls = res, calls
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		rep.figures = append(rep.figures, rows...)
	}
	for _, sys := range []system{custom, lambdaObjects, serverlessWarm, serverlessCold} {
		err := session(cfg, cfg.delays[0], sys, func(d *deployment) (err error) {
			b := bandRow{sys: sys}
			switch sys {
			case custom:
				b.res, _, err = d.measure(workload.GetTimeline, cfg.ops)
			case serverlessCold:
				b.res, err = d.mix(cfg.ops/4 + 1)
			default:
				b.res, err = d.mix(cfg.ops)
			}
			rep.table1 = append(rep.table1, b)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// session boots sys, populates it and runs fn against it, then tears it
// down, so one system at a time holds the machine.
func session(cfg config, delay time.Duration, sys system, fn func(*deployment) error) error {
	log.Printf("retwis-bench: %s, delay %v", systemNames[sys], delay)
	d, err := boot(cfg, delay, sys)
	if err != nil {
		return fmt.Errorf("%s: %w", systemNames[sys], err)
	}
	defer d.close()
	d.pop, d.clients = workload.Config{Accounts: cfg.accounts}, cfg.concurrency
	if err := workload.Populate(d.pop, d.create, d.inv); err != nil {
		return fmt.Errorf("%s: populate: %w", systemNames[sys], err)
	}
	if err := fn(d); err != nil {
		return fmt.Errorf("%s: %w", systemNames[sys], err)
	}
	return nil
}

// boot starts sys on loopback with every RPC delayed by delay.
func boot(cfg config, delay time.Duration, sys system) (*deployment, error) {
	rpcOpts := &rpc.ClientOptions{Delay: delay, Timeout: 120 * time.Second}
	switch sys {
	case custom:
		return bootCustom(cfg)
	case lambdaObjects:
		l, err := cluster.StartLocal(cluster.LocalOptions{
			Groups:   []int{cfg.replicas},
			DataRoot: cfg.dataRoot,
			Node:     cluster.NodeOptions{Runtime: core.Options{CacheEntries: 64 << 10}, ClientOptions: rpcOpts},
			Client:   cluster.ClientConfig{RPC: rpcOpts},
		})
		if err != nil {
			return nil, err
		}
		typ := retwis.MustType()
		if err := l.Client.RegisterType(typ); err != nil {
			l.Close()
			return nil, err
		}
		return &deployment{
			inv: workload.InvokerFunc(func(object uint64, method string, args [][]byte) ([]byte, error) {
				// The methods the linked type proves read-only go out as
				// replica reads.
				if mi, ok := typ.Method(method); ok && mi.ReadOnly() {
					return l.Client.InvokeRead(core.ObjectID(object), method, args)
				}
				return l.Client.Invoke(core.ObjectID(object), method, args)
			}),
			create: func(id uint64) error { return l.Client.CreateObject(retwis.TypeName, core.ObjectID(id)) },
			close: func() {
				// The failure detector must not fire under a bench's load:
				// a promotion is a fault of the run, not a cost of it.
				log.Printf("retwis-bench: %s: %d promotions", systemNames[sys], l.Coord.Members[0].Service.PromoteCounts()[0])
				l.Close()
			},
		}, nil
	}
	// Warm: clients contact the compute node directly, the paper's measured
	// configuration. Cold: one storage node, a compute node that pays
	// coldStart on every invocation, and every job through the load
	// balancer's durable request log, like a FaaS front door.
	replicas, compute := cfg.replicas, baseline.ComputeOptions{Metrics: telemetry.NewRegistry()}
	if sys == serverlessCold {
		replicas, compute.ColdStartPenalty = 1, coldStart
	}
	l, err := baseline.StartLocal(baseline.LocalOptions{Replicas: replicas, DataRoot: cfg.dataRoot, Compute: compute, RPC: rpcOpts})
	if err != nil {
		return nil, err
	}
	if err := l.RegisterType(retwis.MustType()); err != nil {
		l.Close()
		return nil, err
	}
	var client interface {
		workload.Invoker
		Close()
	} = baseline.NewDirectClient(l.Compute.Addr(), rpcOpts)
	if sys == serverlessCold {
		client = baseline.NewClient(l.LB.Addr(), rpcOpts)
	}
	return &deployment{
		inv:    client,
		create: func(id uint64) error { return l.Create(id, retwis.TypeName) },
		reg:    compute.Metrics,
		close:  func() { client.Close(); l.Close() },
	}, nil
}

// measure runs ops jobs of one workload closed-loop and returns the
// result with the compute node's outbound RPCs per job (0 where there is
// no compute node).
func (d *deployment) measure(wl string, ops int) (workload.Result, float64, error) {
	before := d.reg.Snapshot()
	res, err := workload.RunClosedLoop(d.pop, wl, d.inv, d.clients, ops)
	calls := d.reg.Snapshot().Sub(before).Counters["rpc.client.calls"]
	return res, float64(calls) / float64(max(res.Ops, 1)), err
}

// mix is Table 1's web-application profile: 90% GetTimeline, then 10%
// Post, as one result.
func (d *deployment) mix(ops int) (workload.Result, error) {
	get, _, err := d.measure(workload.GetTimeline, ops*9/10)
	if err != nil {
		return get, err
	}
	post, _, err := d.measure(workload.Post, ops/10+1)
	elapsed := get.Elapsed + post.Elapsed
	return workload.Result{
		Workload:   "Mix90/10",
		Ops:        get.Ops + post.Ops,
		Elapsed:    elapsed,
		Throughput: float64(get.Ops+post.Ops) / elapsed.Seconds(),
		Latency:    get.Latency.Merge(post.Latency),
		Errors:     get.Errors + post.Errors,
	}, err
}

// bootCustom is the hand-built microservice bound: the Retwis operations
// as native Go functions over an embedded store, with no isolation runtime
// and no network.
func bootCustom(cfg config) (*deployment, error) {
	dir, err := os.MkdirTemp(cfg.dataRoot, "lambdastore-custom-*")
	if err != nil {
		return nil, err
	}
	db, err := store.Open(dir, nil)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// listLen and push are a list field's length and single-writer append.
	listLen := func(id core.ObjectID, field string) (uint64, error) {
		v, err := db.Get(core.ListLenKey(id, field))
		if err == store.ErrNotFound {
			return 0, nil
		}
		return core.DecodeU64(v), err
	}
	push := func(id core.ObjectID, field string, value []byte) error {
		n, err := listLen(id, field)
		if err != nil {
			return err
		}
		b := store.NewBatch()
		b.Put(core.ListEntryKey(id, field, n), value)
		b.Put(core.ListLenKey(id, field), core.EncodeU64(n+1))
		return db.Write(b)
	}
	inv := func(object uint64, method string, args [][]byte) ([]byte, error) {
		id := core.ObjectID(object)
		switch method {
		case "create_account":
			return nil, db.Put(core.ValueFieldKey(id, "name"), args[0])
		case "add_follower":
			return nil, push(id, "followers", args[0])
		case "create_post":
			entry := append(make([]byte, 16), args[0]...)
			if err := push(id, "posts", entry); err != nil {
				return nil, err
			}
			return core.I64Bytes(0), push(id, "timeline", entry)
		case "get_timeline":
			n, err := listLen(id, "timeline")
			if err != nil {
				return nil, err
			}
			var out []byte
			for i := max(int64(n)-core.BytesI64(args[0]), 0); i < int64(n); i++ {
				v, err := db.Get(core.ListEntryKey(id, "timeline", uint64(i)))
				if err != nil {
					return nil, err
				}
				out = append(append(out, core.I64Bytes(int64(len(v)))...), v...)
			}
			return out, nil
		}
		return nil, fmt.Errorf("custom: unknown method %q", method)
	}
	return &deployment{
		inv:    workload.InvokerFunc(inv),
		create: func(id uint64) error { return db.Put(core.HeaderKey(core.ObjectID(id)), []byte(retwis.TypeName)) },
		close:  func() { db.Close(); os.RemoveAll(dir) },
	}, nil
}

// print renders Figures 1–2 as one table, then Table 1.
func (r *report) print(w io.Writer) {
	fmt.Fprintln(w, "Figures 1-2: Retwis jobs/s (disaggregated normalized to aggregated) and median / p99 latency.")
	fmt.Fprintln(w, "dis RPCs/job: the disaggregated compute node's storage and nested calls per job.")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "delay\tworkload\tagg jobs/s\tdis jobs/s\tdis/agg\tagg p50\tagg p99\tdis p50\tdis p99\tdis RPCs/job\terrors")
	for _, f := range r.figures {
		fmt.Fprintf(tw, "%v\t%s\t%.1f\t%.1f\t%.2fx\t%v\t%v\t%v\t%v\t%.1f\t%d\n",
			f.delay, f.agg.Workload, f.agg.Throughput, f.dis.Throughput, f.dis.Throughput/f.agg.Throughput,
			f.agg.Latency.Quantile(0.5), f.agg.Latency.Quantile(0.99),
			f.dis.Latency.Quantile(0.5), f.dis.Latency.Quantile(0.99), f.disCalls, f.agg.Errors+f.dis.Errors)
	}
	tw.Flush()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Table 1: latency bands, GetTimeline 90% / Post 10% (the custom service: GetTimeline).")
	fmt.Fprintf(w, "The cold row's %v start is emulated, and loopback stands in for the network: both modeled.\n", coldStart)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "system\tpaper band\tmedian\tp99\tjobs/s\terrors")
	for _, b := range r.table1 {
		fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%.1f\t%d\n", systemNames[b.sys], paperBands[b.sys],
			b.res.Latency.Quantile(0.5), b.res.Latency.Quantile(0.99), b.res.Throughput, b.res.Errors)
	}
	tw.Flush()
}
