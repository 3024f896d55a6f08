package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/sched"
)

// setupRepeats is how many times a run sets up from nothing when it
// reports setup_s.
const setupRepeats = 5

// replaySeconds bounds the untraced single-client pass that fixes how many
// ops the traced replay covers.
const replaySeconds = 1.0

// runConfig is one run of one workload.
type runConfig struct {
	spec    *workloadSpec
	seed    int64
	seconds float64
	layers  bool // measure the per-layer metrics too (adds the traced replay)
	// setups is how many times the run sets up from nothing; setup_s is
	// the median and the last deployment is the one measured.
	setups int
	// scale shrinks the warm-up and the replay along with the window; the
	// smoke test runs at 1/200.
	scale float64
}

// result is what one run reports.
type result struct {
	env       envInfo
	metrics   metrics
	attempted int
	failed    int
	correct   bool
	errs      []string // first distinct errors of failed ops and probes
	wrong     []string // first distinct oracle violations
	traceFile string
}

// setUp is everything before the measured window: boot the group, write
// the population, flush, and run the fixed-size warm-up through the client
// so connections, leases, instance pools and caches are in steady state.
func setUp(root string, in *inputs, led *ledger, scale float64) (*deployment, int64, int, error) {
	d, err := boot(root)
	if err != nil {
		return nil, 0, 0, err
	}
	seeded, err := d.populate(in)
	if err != nil {
		d.close()
		return nil, 0, 0, err
	}
	clients := loadClients()
	per := int(math.Ceil(float64(in.w.warmOps) * scale / float64(clients)))
	warm := d.runWindow(in, led, clients, 1, 0, per)
	return d, seeded, warm.attempted, nil
}

func runWorkload(cfg runConfig) (res *result, err error) {
	root, err := dataRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	res = &result{metrics: metrics{}, env: newEnv(cfg.seed, cfg.seconds, root)}
	res.env.CanaryBeforeNs = canaryNs()
	in := newInputs(cfg.spec, cfg.seed)
	m := res.metrics

	var d *deployment
	var led *ledger
	var seeded int64
	var setups []float64
	var spans *spanLog
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.close()
		}
		led = &ledger{}
		t0 := time.Now()
		if d, seeded, res.env.WarmOps, err = setUp(root, in, led, cfg.scale); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()

	// Retained memory is read here, where the work done so far is the same
	// on every run. At the window's end it would be a function of how many
	// writes the window fitted in: a faster system would retain more.
	if err := d.settle(in); err != nil {
		return nil, err
	}
	m["live_heap_mb"] = liveHeapMB()

	// The measured window: closed loop, no spans.
	before := d.readCounts()
	w := d.runWindow(in, led, loadClients(), 0, time.Duration(cfg.seconds*float64(time.Second)), 0)
	delta := d.readCounts().sub(before)
	res.attempted, res.failed = w.attempted, w.failed
	res.env.WindowOps = w.attempted
	ops := float64(w.attempted)
	m["diag.throughput_ops_s"], m["diag.latency_p50_us"], m["diag.latency_p99_us"] = w.sliceMedians()
	m["diag.cpu_us_per_op"] = ratio(float64(w.use.cpu)/1e3, ops)
	m["allocs_per_op"] = ratio(float64(w.use.mallocs), ops)
	m["setup_s"] = median(setups)
	m["diag.error_rate"] = ratio(float64(w.failed), ops)
	m["bench.gc_pause_ms"] = float64(w.use.gcPause) / 1e6
	m["cluster.read_p50_us"], m["cluster.write_p50_us"] = w.kindP50(true), w.kindP50(false)
	reads := float64(w.reads())

	if cfg.layers {
		countMetrics(m, delta, ops, reads)
		m["store.space_amp"] = ratio(float64(dirBytes(filepath.Join(d.dir, "node0"))), float64(seeded+led.userBytes.Load()))
		if spans, err = d.tracedReplay(in, led, cfg.scale, res); err != nil {
			return nil, err
		}
	}

	if err := d.checkState(in, led); err != nil {
		led.violation(err.Error())
	}
	res.env.CanaryAfterNs = canaryNs()
	m["bench.canary_ns"] = (res.env.CanaryBeforeNs + res.env.CanaryAfterNs) / 2
	m["bench.peak_rss_mb"] = peakRSSMB()
	// A failed op or probe is reported and counted, the way a user would
	// count it; only an answer the oracle rejects makes the run incorrect.
	res.errs, res.wrong = led.errs, led.wrong
	res.correct = len(res.wrong) == 0
	if spans != nil {
		if err := os.MkdirAll(outDir(), 0o755); err != nil {
			return nil, err
		}
		res.traceFile = filepath.Join(outDir(), "trace_"+in.w.name+".json")
		if err := spans.write(res.traceFile, in.w.name, res.env); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// settle brings the caches to a state that does not depend on how the
// warm-up's requests happened to interleave: background work is drained,
// then every account's timeline is read once on every replica, which
// leaves the result, state and block caches as full as this population
// makes them.
func (d *deployment) settle(in *inputs) error {
	errs := make([]error, len(d.nodes))
	var wg sync.WaitGroup
	for ni, n := range d.nodes {
		wg.Add(1)
		go func(ni int, n *cluster.Node) {
			defer wg.Done()
			errs[ni] = n.DB().CompactNow()
			for i := 0; i < in.w.accounts && errs[ni] == nil; i++ {
				_, errs[ni] = n.Runtime().Invoke(core.ObjectID(i+1), "get_timeline", in.limitArgs[in.w.limitHi])
			}
		}(ni, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("settle: %w", err)
		}
	}
	return nil
}

// countMetrics derives the per-layer counts from the window's stat deltas.
func countMetrics(m metrics, c counts, ops, reads float64) {
	r := func(name string) float64 { return float64(c.reg[name]) }
	m["cluster.backup_read_share"] = ratio(r("reads.backup_served"), reads)
	m["rpc.requests_per_op"] = ratio(r("rpc.server.requests"), ops)
	m["rpc.wire_bytes_per_op"] = ratio(r("rpc.server.rx_bytes")+r("rpc.server.tx_bytes"), ops)
	m["core.commits_per_op"] = ratio(r("core.commits"), ops)
	m["core.fuel_per_op"] = ratio(r("core.fuel_used"), ops)
	m["cache.hit_rate"] = ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses+c.cacheValidations))
	m["vm.execs_per_op"] = ratio(float64(c.poolWarm+c.poolCold), ops)
	m["vm.pool_warm_rate"] = ratio(float64(c.poolWarm), float64(c.poolWarm+c.poolCold))
	m["store.state_cache_hit_rate"] = ratio(float64(c.stateHits), float64(c.stateHits+c.stateMisses))
	m["store.block_cache_hit_rate"] = ratio(float64(c.blockHits), float64(c.blockHits+c.blockMisses))
	m["store.wal_syncs_per_op"] = ratio(r("store.wal_syncs"), ops)
	m["store.wal_bytes_per_op"] = ratio(r("store.wal_bytes"), ops)
	m["store.flushes"] = r("store.flushes")
	m["store.compactions"] = r("store.compactions")
	m["replication.shipped_per_op"] = ratio(r("repl.shipped"), ops)
	m["replication.batch_size_mean"] = ratio(float64(c.batchSizeSum), float64(c.batchSizeN))
}

// replayReq is one request of the traced replay: the op, and what its
// root span's pass learned for the layer passes that follow.
type replayReq struct {
	id       int // 1-based position in the replayed stream
	o        op
	root     int // the root span's ID, the cause of every layer span
	served   int // index of the node that executed the real request
	replyLen int
}

// tracedReplay is the per-layer half of a run. One client first replays
// the head of the measured stream untraced for replaySeconds, which fixes
// the op count K. It then replays the same K ops under root spans, and
// after that makes one pass per layer over the same K ops, re-entering
// each at a deeper public entry point or against a benchmark-owned
// instance of the layer, under a span caused by the request's root. Every
// pass is a tight single-client loop, so all layers are timed in the same
// regime and their medians can be subtracted. Everything is recorded from
// this side of the layers' APIs.
func (d *deployment) tracedReplay(in *inputs, led *ledger, scale float64, res *result) (*spanLog, error) {
	m := res.metrics
	plain := d.runWindow(in, led, 1, 0, time.Duration(replaySeconds*scale*float64(time.Second)), 0)
	res.attempted += plain.attempted
	res.failed += plain.failed

	cp := newClusterProbe(d)
	rp, err := newRPCProbe()
	if err != nil {
		return nil, err
	}
	defer rp.close()
	vp, err := newVMProbe()
	if err != nil {
		return nil, err
	}
	sp, err := newStoreProbe(filepath.Join(d.dir, "probe-store"))
	if err != nil {
		return nil, err
	}
	defer sp.close()
	rep, err := newReplProbe(filepath.Join(d.dir, "probe-backup"))
	if err != nil {
		return nil, err
	}
	defer rep.close()
	cacheP, locks := newCacheProbe(), sched.NewTable()

	// Root pass: the real requests, and the read oracle.
	log := newSpanLog()
	var reqs []replayReq
	st := in.newStream(0, 0)
	var underSpan []float64 // each request's time with the span's bookkeeping inside, ns
	for i := 0; i < plain.attempted; i++ {
		o := st.next()
		t0 := time.Now()
		out, root, served, err := cp.invoke(log, i+1, in, o)
		underSpan = append(underSpan, float64(time.Since(t0)))
		res.attempted++
		if !led.record(in, o, out, err) {
			res.failed++
			continue
		}
		if o.kind == opRead {
			if err := in.checkTimeline(o, out); err != nil {
				led.violation(err.Error())
			}
		}
		reqs = append(reqs, replayReq{id: i + 1, o: o, root: root, served: served, replyLen: len(out)})
	}
	res.env.TraceOps = len(reqs)

	// layerPass times one layer over every replayed request. prepare runs
	// untimed and returns the call to time, or nil to skip the request.
	layerPass := func(name string, prepare func(r *replayReq) func() error) {
		for i := range reqs {
			call := prepare(&reqs[i])
			if call == nil {
				continue
			}
			id := log.begin(name, reqs[i].id, reqs[i].root)
			err := call()
			log.end(id)
			if err != nil {
				res.failed++
				led.failure(name + ": " + err.Error())
			}
		}
	}
	// Reads re-enter on the two replicas the real request did not touch,
	// so a probe meets the cache state a fresh request would, not the one
	// its own root left behind. Writes can only go to the primary.
	replica := func(r *replayReq, offset int) *cluster.Node {
		if r.o.kind != opRead {
			return d.nodes[0]
		}
		return d.nodes[(r.served+offset)%replicas]
	}
	layerPass("rpc.call", func(r *replayReq) func() error {
		body := echoRequest(invokeFrameLen(r.o, in.args(r.o)), r.replyLen)
		return func() error { return rp.call(body) }
	})
	layerPass("wire.codec", func(r *replayReq) func() error {
		return func() error { return wireCodec(in.args(r.o)) }
	})
	layerPass("core.invoke", func(r *replayReq) func() error {
		return func() error {
			out, err := coreInvoke(replica(r, 1), in, r.o)
			res.attempted++
			if !led.record(in, r.o, out, err) {
				res.failed++
			}
			return nil
		}
	})
	var keysRead, readSpans int
	layerPass("store.read", func(r *replayReq) func() error {
		if r.o.kind != opRead {
			return nil
		}
		n := replica(r, 2)
		keys, err := readKeys(n, r.o)
		if err != nil {
			return func() error { return err }
		}
		keysRead += len(keys)
		readSpans++
		return func() error { return storeRead(n, keys) }
	})
	layerPass("store.write", func(r *replayReq) func() error {
		if r.o.kind == opRead {
			return nil
		}
		ws := sp.postWriteSet()
		return func() error { return sp.db.Write(ws) }
	})
	layerPass("replication.ship", func(r *replayReq) func() error {
		if r.o.kind == opRead {
			return nil
		}
		ws := rep.backup.postWriteSet()
		return func() error { return rep.ship(ws) }
	})
	var fuels []float64
	layerPass("vm.exec", func(r *replayReq) func() error {
		stub := vp.stubFor(in, r.o)
		return func() error {
			fuel, err := vp.exec(r.o, stub)
			fuels = append(fuels, float64(fuel))
			return err
		}
	})
	layerPass("cache.lookup", func(*replayReq) func() error {
		return func() error {
			if !cacheP.lookups() {
				return fmt.Errorf("probe entry did not hit")
			}
			return nil
		}
	})
	layerPass("sched.acquire", func(r *replayReq) func() error {
		return func() error { return schedAcquire(locks, uint64(r.o.obj)) }
	})

	m["cluster.invoke_us"] = log.medianUs("cluster.invoke")
	m["rpc.call_us"] = log.medianUs("rpc.call")
	m["wire.codec_ns"] = log.medianUs("wire.codec") * 1e3 / wireReps
	m["core.invoke_us"] = log.medianUs("core.invoke")
	m["vm.exec_us"] = log.medianUs("vm.exec")
	m["vm.fuel_per_call"] = median(fuels)
	m["store.read_us"] = log.medianUs("store.read")
	m["store.get_ns"] = ratio(m["store.read_us"]*1e3, ratio(float64(keysRead), float64(readSpans)))
	m["store.write_us"] = log.medianUs("store.write")
	m["replication.ship_us"] = log.medianUs("replication.ship")
	m["cache.lookup_ns"] = log.medianUs("cache.lookup") * 1e3 / cacheReps
	m["sched.acquire_ns"] = log.medianUs("sched.acquire") * 1e3 / schedReps
	// Self times by subtraction of medians; see the README for where that
	// is unsound. They are floored at zero.
	m["cluster.self_us"] = math.Max(0, m["cluster.invoke_us"]-m["rpc.call_us"]-m["core.invoke_us"])
	m["core.self_us"] = math.Max(0, m["core.invoke_us"]-m["vm.exec_us"]*m["vm.execs_per_op"]-m["store.read_us"])
	// Median time per request inside the client call, with and without the
	// root span (and the counter reads that find the serving node) around
	// it. The two passes differ by far more than a span costs, so this
	// mostly says how much two single-client passes differ.
	var untraced []float64
	for _, sm := range plain.samples {
		untraced = append(untraced, float64(sm.dur))
	}
	perPlain := median(untraced)
	m["bench.span_overhead_pct"] = math.Max(0, 100*ratio(median(underSpan)-perPlain, perPlain))

	// Allocation counts, each over a short loop in the now quiet process.
	if len(reqs) > 0 {
		last := &reqs[len(reqs)-1]
		body := echoRequest(invokeFrameLen(last.o, in.args(last.o)), last.replyLen)
		if m["rpc.allocs_per_call"], err = allocsPer(200, func() error { return rp.call(body) }); err != nil {
			return nil, err
		}
		stub := vp.stubFor(in, last.o)
		if m["vm.allocs_per_call"], err = allocsPer(200, func() error { _, err := vp.exec(last.o, stub); return err }); err != nil {
			return nil, err
		}
		n := 200
		if in.w.writes() {
			n = 50
		}
		// Fresh ops from where the replay stopped, at the primary.
		m["core.allocs_per_invoke"], _ = allocsPer(n, func() error {
			o := st.next()
			out, err := coreInvoke(d.nodes[0], in, o)
			led.record(in, o, out, err)
			return nil
		})
	}
	if m["vm.instantiate_us"], err = vp.instantiateUs(); err != nil {
		return nil, err
	}
	return log, nil
}
