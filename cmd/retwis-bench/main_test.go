package main

import (
	"os"
	"sync"
	"testing"
	"time"

	"lambdastore/internal/workload"
)

// tinyDelay is the tiny run's second sweep point.
const tinyDelay = 200 * time.Microsecond

// tiny is one seconds-long run shared by the tests below. They assert the
// paper's shape on counts, on injected delays and on the modeled cold
// start — never on two wall-clock measurements compared with each other,
// which a loaded machine reorders.
var tiny = sync.OnceValues(func() (*report, error) {
	rep, err := run(config{accounts: 100, concurrency: 8, ops: 80, replicas: 3, delays: []time.Duration{0, tinyDelay}})
	if err == nil {
		rep.print(os.Stderr)
	}
	return rep, err
})

func tinyReport(t *testing.T) *report {
	t.Helper()
	if testing.Short() {
		t.Skip("boots every deployment")
	}
	rep, err := tiny()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func checkRan(t *testing.T, what string, res workload.Result) {
	t.Helper()
	if res.Errors > 0 || res.Ops == 0 {
		t.Errorf("%s: %d ops, %d errors", what, res.Ops, res.Errors)
	}
}

// TestComparisonShapeMatchesPaper: every Figure 1–2 row ran cleanly, and the
// disaggregated side pays the network per storage operation — more than one
// compute-node RPC per job on every workload, and more on GetTimeline (one
// per timeline entry) than on Follow (one list append).
func TestComparisonShapeMatchesPaper(t *testing.T) {
	rep := tinyReport(t)
	if len(rep.figures) != 2*len(workload.Workloads) {
		t.Fatalf("%d figure rows, want one per workload and delay", len(rep.figures))
	}
	calls := map[string]float64{}
	for _, f := range rep.figures[:len(workload.Workloads)] {
		checkRan(t, "aggregated "+f.agg.Workload, f.agg)
		checkRan(t, "disaggregated "+f.dis.Workload, f.dis)
		if f.disCalls <= 1 {
			t.Errorf("%s: %.2f disaggregated RPCs per job, want > 1", f.dis.Workload, f.disCalls)
		}
		calls[f.dis.Workload] = f.disCalls
	}
	if calls[workload.GetTimeline] <= calls[workload.Follow] {
		t.Errorf("RPCs per job: GetTimeline %.2f <= Follow %.2f", calls[workload.GetTimeline], calls[workload.Follow])
	}
}

// TestTable1Bands: every band ran cleanly, the cold row pays its modeled
// start, and the native custom service is below LambdaObjects (they are
// about three orders of magnitude apart).
func TestTable1Bands(t *testing.T) {
	rep := tinyReport(t)
	if len(rep.table1) != len(systemNames) {
		t.Fatalf("%d Table 1 rows, want %d", len(rep.table1), len(systemNames))
	}
	median := map[system]time.Duration{}
	for _, b := range rep.table1 {
		checkRan(t, systemNames[b.sys], b.res)
		median[b.sys] = b.res.Latency.Quantile(0.5)
	}
	if median[serverlessCold] < coldStart {
		t.Errorf("cold median %v below the %v start it models", median[serverlessCold], coldStart)
	}
	if median[custom] >= median[lambdaObjects] {
		t.Errorf("custom service median %v >= LambdaObjects %v", median[custom], median[lambdaObjects])
	}
}

// TestNetDelayAblation: the -delay sweep reaches every hop. Each RPC sleeps
// the delay on the way out and on the way back, so an aggregated job (one
// client RPC) takes at least 2d, and a disaggregated one (the client RPC plus
// at least one storage RPC from the compute node) at least 4d.
func TestNetDelayAblation(t *testing.T) {
	rep := tinyReport(t)
	for _, f := range rep.figures[len(workload.Workloads):] {
		checkRan(t, "aggregated "+f.agg.Workload, f.agg)
		checkRan(t, "disaggregated "+f.dis.Workload, f.dis)
		if f.delay != tinyDelay {
			t.Fatalf("row at delay %v, want %v", f.delay, tinyDelay)
		}
		if p50 := f.agg.Latency.Quantile(0.5); p50 < 2*tinyDelay {
			t.Errorf("%s: aggregated median %v below the 2x%v one RPC pays", f.agg.Workload, p50, tinyDelay)
		}
		if p50 := f.dis.Latency.Quantile(0.5); p50 < 4*tinyDelay {
			t.Errorf("%s: disaggregated median %v below the 4x%v two RPCs pay", f.dis.Workload, p50, tinyDelay)
		}
	}
}
