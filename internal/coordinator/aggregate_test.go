package coordinator

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

// goldenWindow is a hand-built merged window: two seconds in which a group
// ran 1000 invocations (995 at ~1ms, 5 at ~100ms), fsynced 500 times at
// ~2ms, hit the cache 3 times in 4, served 40 backup reads and bounced 10.
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
// twelve columns, their headers, widths and formats, the JSON keys the
// other readers of the rollup use — all produced by walking the one column
// table, so a row added there shows up in Values, in /cluster/metrics and
// in the table without another edit (and fails here until the golden is
// extended on purpose).
func TestTopGolden(t *testing.T) {
	g := rollup(goldenWindow())
	g.ID, g.Primary, g.Scraped = 0, "10.0.0.1:7000", 3
	all := rollup(goldenWindow())
	all.Scraped = 3
	cm := ClusterMetrics{UpdatedUnixNano: time.Now().UnixNano(), Members: 3, Scraped: 3, Groups: []GroupMetrics{g}, Cluster: all}

	got := FormatClusterMetrics(cm)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	want := []string{
		"GROUP  PRIMARY                   OPS/S   P50(us)   P99(us)  P999(us) FSYNC99(us)  CACHE    QD LEASES   BKRD/S    BNC/S",
		"0      10.0.0.1:7000             500.0      1024      1024    102400        2048  75.0%     7      2     20.0      5.0",
		"ALL    -                         500.0      1024      1024    102400        2048  75.0%     7      2     20.0      5.0",
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

	// Every column is in the JSON under its key, and the keys carry the
	// group's values.
	raw, err := json.Marshal(cm)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ClusterMetrics
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, c := range columns {
		if _, ok := decoded.Cluster.Values[c.Key]; !ok {
			t.Errorf("column %s (%s) is not in the /cluster/metrics JSON", c.Key, c.Header)
		}
	}
	for key, want := range map[string]float64{"backup_reads_per_sec": 20, "bounced_reads_per_sec": 5, "p99_us": 1024, "queue_depth": 7} {
		if got, ok := decoded.Groups[0].Values[key]; !ok || got != want {
			t.Errorf("Values[%q] = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if decoded.Cluster.Invoke.Count != 1000 {
		t.Errorf("merged invoke histogram count = %d, want 1000", decoded.Cluster.Invoke.Count)
	}
}

// TestRollupOfEmptyWindow: a group nobody scraped rolls up to zeros, not
// NaNs or a division by zero.
func TestRollupOfEmptyWindow(t *testing.T) {
	g := rollup(telemetry.MergeSnapshots(nil))
	for _, c := range columns {
		if v := g.Values[c.Key]; v != 0 {
			t.Errorf("empty window: %s = %v, want 0", c.Key, v)
		}
	}
}

// TestAggregatorWindowIsItsOwn drives the scrape loop against a live member
// endpoint: the first scrape reports since the member's start, each later
// one what happened since the aggregator's previous scrape — no matter who
// else reads the same endpoint in between, because the member keeps no
// window for scrapers to steal.
func TestAggregatorWindowIsItsOwn(t *testing.T) {
	reg := telemetry.NewRegistry()
	served := reg.Counter("reads.backup_served")
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(reg.Snapshot())
	}))
	defer member.Close()

	services, _ := newCluster(t, 1, Options{DisableFailureDetector: true})
	svc := services[0]
	if err := svc.ProposeCommand(&Command{Kind: cmdSetGroup, Group: shard.Group{ID: 0, Primary: "m1"}}); err != nil {
		t.Fatal(err)
	}
	svc.HeartbeatWithDebug("m1", strings.TrimPrefix(member.URL, "http://"))
	agg := NewAggregator(svc, time.Hour)

	served.Add(100)
	first := agg.ScrapeOnce()
	if first.Scraped != 1 || first.Cluster.Values["backup_reads_per_sec"] <= 0 {
		t.Fatalf("first scrape: %+v", first.Cluster)
	}

	served.Add(10)
	// A rival scraper (an operator's lambdactl stats, a second coordinator).
	if resp, err := http.Get(member.URL); err == nil {
		resp.Body.Close()
	}
	served.Add(5)
	second := agg.ScrapeOnce().Cluster
	if got := second.Values["backup_reads_per_sec"] * second.WindowSecs; math.Abs(got-15) > 1e-6 {
		t.Fatalf("second window counted %.3f backup reads over %.3fs, want the 15 since this aggregator's previous scrape",
			got, second.WindowSecs)
	}
	third := agg.ScrapeOnce().Cluster
	if third.Values["backup_reads_per_sec"] != 0 {
		t.Fatalf("idle window reports %v backup reads/s", third.Values["backup_reads_per_sec"])
	}
}
