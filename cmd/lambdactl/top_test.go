package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

// goldenWindow is a hand-built merged window: two seconds in which a group
// ran 1000 invocations (995 at ~1ms, 5 at ~100ms), fsynced 500 times at
// ~2ms (so p999 and fsync p99 read the maxima, not their buckets' 102400us
// and 2048us upper bounds), hit the cache 3 times in 4, served 40 backup reads and bounced 10.
func goldenWindow() telemetry.RegistrySnapshot {
	var invoke, fsync telemetry.Histogram
	for i := 0; i < 995; i++ {
		invoke.Record(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		invoke.Record(100 * time.Millisecond)
	}
	for i := 0; i < 500; i++ {
		fsync.Record(2 * time.Millisecond)
	}
	return telemetry.RegistrySnapshot{
		UnixNano: 1,
		Seconds:  2,
		Histograms: map[string]telemetry.HistData{
			"core.invoke": invoke.Data(),
			"wal.fsync":   fsync.Data(),
		},
		Counters: map[string]uint64{
			"core.cache_hits": 300, "core.cache_misses": 100,
			"reads.backup_served": 40, "reads.primary_bounced": 10,
		},
		Gauges: map[string]int64{
			"rpc.server.in_flight": 7, "lease.held": 2,
		},
	}
}

// TestTopGolden pins `lambdactl top` against the hand-built window: the
// twelve columns, their headers, widths and formats, and the keys the
// rollup's values go by — all produced by walking the one column table, so
// a row added there shows up in Values and in the table without another
// edit (and fails here until the golden is extended on purpose).
func TestTopGolden(t *testing.T) {
	g := rollup(goldenWindow())
	g.ID, g.Primary = 0, "10.0.0.1:7000"
	cm := clusterMetrics{Members: 3, Scraped: 3, Groups: []groupMetrics{g}, Cluster: rollup(goldenWindow())}

	got := formatTop(cm)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	want := []string{
		"GROUP  PRIMARY                   OPS/S   P50(us)   P99(us)  P999(us) FSYNC99(us)  CACHE    QD LEASES   BKRD/S    BNC/S",
		"0      10.0.0.1:7000             500.0      1024      1024    100000        2000  75.0%     7      2     20.0      5.0",
		"ALL    -                         500.0      1024      1024    100000        2000  75.0%     7      2     20.0      5.0",
	}
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "cluster: 3/3 member(s) scraped, window 2.0s") {
		t.Fatalf("top output:\n%s", got)
	}
	for i, w := range want {
		if lines[i+1] != w {
			t.Errorf("top line %d:\n got %q\nwant %q", i+1, lines[i+1], w)
		}
	}
	if n := len(strings.Fields(want[0])); n != 12 || n != len(columns)+2 {
		t.Errorf("top prints %d columns for %d table rows, want 12 for 10", n, len(columns))
	}

	// Every column is in Values under its key, and the keys carry the
	// group's values.
	for _, c := range columns {
		if _, ok := cm.Cluster.Values[c.Key]; !ok {
			t.Errorf("column %s (%s) is not in the rollup's Values", c.Key, c.Header)
		}
	}
	for key, want := range map[string]float64{"ops_per_sec": 500, "backup_reads_per_sec": 20, "bounced_reads_per_sec": 5, "p99_us": 1024, "queue_depth": 7} {
		if got, ok := cm.Groups[0].Values[key]; !ok || got != want {
			t.Errorf("Values[%q] = %v (present %v), want %v", key, got, ok, want)
		}
	}
}

// TestRollupOfEmptyWindow: a group no replica answered for rolls up to
// zeros, not NaNs or a division by zero.
func TestRollupOfEmptyWindow(t *testing.T) {
	g := rollup(telemetry.MergeSnapshots(nil))
	for _, c := range columns {
		if v := g.Values[c.Key]; v != 0 {
			t.Errorf("empty window: %s = %v, want 0", c.Key, v)
		}
	}
}

// TestTopWindowIsItsOwn drives two samplers of one node, interleaved: the
// first sample reports since the node's start, each later one what
// happened since that sampler's own previous sample — however often the
// other samples in between, because the node keeps no window for a reader
// to steal.
func TestTopWindowIsItsOwn(t *testing.T) {
	reg := telemetry.NewRegistry()
	served := reg.Counter("reads.backup_served")
	fetch := func(string) ([]byte, error) { return json.Marshal(reg.Snapshot()) }
	a, b := newSampler(fetch), newSampler(fetch)
	count := func(s *sampler) float64 {
		_, win, err := s.next("m1")
		if err != nil {
			t.Fatal(err)
		}
		return float64(win.Counters["reads.backup_served"])
	}

	served.Add(100)
	if got := count(a); got != 100 {
		t.Fatalf("a's first window counted %v backup reads, want the 100 since the node's start", got)
	}
	served.Add(10)
	if got := count(b); got != 110 {
		t.Fatalf("b's first window counted %v backup reads, want 110", got)
	}
	served.Add(5)
	if got := count(a); got != 15 {
		t.Fatalf("a's second window counted %v backup reads, want the 15 since a's previous sample", got)
	}
	served.Add(1)
	if got := count(b); got != 6 {
		t.Fatalf("b's second window counted %v backup reads, want the 6 since b's previous sample", got)
	}
	if got := count(a); got != 1 {
		t.Fatalf("a's third window counted %v backup reads, want 1", got)
	}
	if got := count(a); got != 0 {
		t.Fatalf("an idle window counted %v backup reads", got)
	}
}

// TestTopLeavesOutItsOwnCall: a node answers node.stats from inside the
// call and leaves that call out of its in-flight gauge, so an idle group's
// QD reads 0, not one per member; and top shows the gauge as the node gives
// it, so a node with 3 requests in flight reads 3.
func TestTopLeavesOutItsOwnCall(t *testing.T) {
	l, err := cluster.StartLocal(cluster.LocalOptions{Groups: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := newSampler(newOperator(t).snapshot)
	for range 2 {
		if qd := s.top(l.Client.Directory()).Groups[0].Values["queue_depth"]; qd != 0 {
			t.Errorf("idle group's QD = %v, want 0", qd)
		}
	}

	reg := telemetry.NewRegistry()
	inFlight := reg.Gauge("rpc.server.in_flight")
	for range 3 {
		inFlight.Inc()
	}
	s = newSampler(func(string) ([]byte, error) { return json.Marshal(reg.Snapshot()) })
	dir := shard.NewDirectory([]shard.Group{{ID: 0, Primary: "a"}})
	if qd := s.top(dir).Groups[0].Values["queue_depth"]; qd != 3 {
		t.Errorf("QD with 3 requests in flight = %v, want 3", qd)
	}
}

// TestTopRollsUpGroups runs top's sampling against a deployment — no debug
// server — of two groups (group 0 a primary and a backup, group 1 one
// node), over the view its client took from the coordinator: after traffic
// to an object of each group, every group's row shows the window's
// invocations.
func TestTopRollsUpGroups(t *testing.T) {
	l, err := cluster.StartLocal(cluster.LocalOptions{Groups: []int{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := l.Client
	s := newSampler(newOperator(t).snapshot)
	s.top(c.Directory())

	typ, err := retwis.NewType()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	// Ids route by id % 2: user 2 lives in group 0, user 3 in group 1.
	for _, id := range []core.ObjectID{2, 3} {
		if err := c.CreateObject(retwis.TypeName, id); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Invoke(id, "create_account", [][]byte{[]byte("u")}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := c.InvokeRead(id, "get_name", nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	cm := s.top(c.Directory())
	if cm.Members != 3 || cm.Scraped != 3 || len(cm.Groups) != 2 {
		t.Fatalf("sampled %d/%d members in %d groups, want 3/3 in 2", cm.Scraped, cm.Members, len(cm.Groups))
	}
	for _, g := range append(cm.Groups, cm.Cluster) {
		if g.Values["ops_per_sec"] <= 0 || g.Values["p99_us"] <= 0 {
			t.Errorf("group %d (primary %q): OPS/S %v, P99 %v, want both above 0", g.ID, g.Primary, g.Values["ops_per_sec"], g.Values["p99_us"])
		}
	}
	if g0, ops := cm.Groups[0], cm.Cluster.Values["ops_per_sec"]*cm.Cluster.WindowSecs; g0.Primary != l.Slots[0].Addr || math.Round(ops) < 18 {
		t.Errorf("group 0 primary %q (want %s); cluster window counted %.0f invocations, want at least the 18 invoked", g0.Primary, l.Slots[0].Addr, ops)
	}

	table := formatTop(cm)
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[2], "0 ") || !strings.HasPrefix(lines[3], "1 ") || !strings.HasPrefix(lines[4], "ALL ") {
		t.Errorf("top table, want a header, one row per group and ALL:\n%s", table)
	}
}
