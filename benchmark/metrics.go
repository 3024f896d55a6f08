package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. The two lists below are the
// program-side copy of BENCHMARK.json's end_to_end and per_layer lists;
// smoke_test.go fails when they drift apart.
type metricDef struct {
	name string
	unit string
}

// endToEnd is the part of what a user of the system sees that repeats well
// enough on a shared sandbox to carry a regression bound.
var endToEnd = []metricDef{
	{"allocs_per_op", "count"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// windowDiag is the rest of what a user sees — the paper's two figures
// among it. Identical runs spread these by 10-35 % here (CALIBRATION.md),
// wider than any bound may be, so they are reported with the per-layer
// metrics, unbounded, under the diag. prefix.
var windowDiag = []metricDef{
	{"diag.throughput_ops_s", "1/s"},
	{"diag.latency_p50_us", "us"},
	{"diag.latency_p99_us", "us"},
	{"diag.cpu_us_per_op", "us"},
	{"diag.error_rate", "ratio"},
}

// perLayer is one layer's number each, named <module>.<metric>, followed
// by windowDiag. Probe timings come from the traced replay; counts are
// deltas of the layers' public stats across the measured window.
var perLayer = append([]metricDef{
	{"cluster.invoke_us", "us"},
	{"cluster.self_us", "us"},
	{"cluster.backup_read_share", "ratio"},
	{"cluster.read_p50_us", "us"},
	{"cluster.write_p50_us", "us"},
	{"rpc.call_us", "us"},
	{"rpc.allocs_per_call", "count"},
	{"rpc.requests_per_op", "count"},
	{"rpc.wire_bytes_per_op", "B"},
	{"wire.codec_ns", "ns"},
	{"core.invoke_us", "us"},
	{"core.allocs_per_invoke", "count"},
	{"core.self_us", "us"},
	{"core.commits_per_op", "count"},
	{"core.fuel_per_op", "count"},
	{"cache.hit_rate", "ratio"},
	{"cache.lookup_ns", "ns"},
	{"sched.acquire_ns", "ns"},
	{"vm.exec_us", "us"},
	{"vm.fuel_per_call", "count"},
	{"vm.allocs_per_call", "count"},
	{"vm.execs_per_op", "count"},
	{"vm.pool_warm_rate", "ratio"},
	{"vm.instantiate_us", "us"},
	{"store.read_us", "us"},
	{"store.get_ns", "ns"},
	{"store.state_cache_hit_rate", "ratio"},
	{"store.block_cache_hit_rate", "ratio"},
	{"store.write_us", "us"},
	{"store.wal_syncs_per_op", "count"},
	{"store.wal_bytes_per_op", "B"},
	{"store.flushes", "count"},
	{"store.compactions", "count"},
	{"store.space_amp", "ratio"},
	{"replication.ship_us", "us"},
	{"replication.shipped_per_op", "count"},
	{"replication.batch_size_mean", "count"},
	{"bench.canary_ns", "ns"},
	{"bench.span_overhead_pct", "%"},
	{"bench.peak_rss_mb", "MB"},
	{"bench.gc_pause_ms", "ms"},
}, windowDiag...)

// metrics is one run's name → value table.
type metrics map[string]float64

// printMetrics writes every metric of defs by name with its unit.
func printMetrics(w io.Writer, defs []metricDef, m metrics) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %16.4f %s\n", d.name, m[d.name], d.unit)
	}
}

// median returns the middle of xs (mean of the two middle values for an
// even count) and 0 for none; xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantileSorted returns the q-quantile of an ascending slice by the
// nearest-rank rule.
func quantileSorted(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// ratio is a/b, and 0 when b is 0 (a rate nobody exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
