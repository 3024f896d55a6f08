// The coordinator's metrics aggregation plane. Nodes advertise their debug
// HTTP address in heartbeats; the Aggregator periodically scrapes each
// member's /metrics.json snapshot, subtracts its previous scrape of that
// member, and merges the windows (exact bucket addition — every histogram in
// the system shares one layout) into per-group and cluster-wide rollups. The result is served on the coordinator's
// /cluster/metrics endpoint and rendered by `lambdactl top`.
//
// The paper's division of labor motivates putting this here: placement and
// load-balancing decisions belong to the platform, not the objects, so the
// platform must own an aggregated view of per-group load and tail latency.
// Like everything else on the coordinator, aggregation is off the invocation
// fast path — scraping is read-only HTTP against debug endpoints.
package coordinator

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"lambdastore/internal/telemetry"
)

// column is one scalar of the rollup, written once: its key in
// GroupMetrics.Values (and so in /cluster/metrics), how `lambdactl top`
// heads and formats it, and how it reduces from a merged window — which
// instruments it reads is part of that. A column added here shows up in the
// JSON, the table and to every reader of Values without another edit.
type column struct {
	Key, Header string
	Width       int
	Format      string // fmt verb for the value
	Value       func(w telemetry.RegistrySnapshot) float64
}

var columns = []column{
	{"ops_per_sec", "OPS/S", 8, "%.1f", histPerSec("core.invoke")},
	{"p50_us", "P50(us)", 9, "%.0f", quantileUs("core.invoke", 0.5)},
	{"p99_us", "P99(us)", 9, "%.0f", quantileUs("core.invoke", 0.99)},
	{"p999_us", "P999(us)", 9, "%.0f", quantileUs("core.invoke", 0.999)},
	{"wal_fsync_p99_us", "FSYNC99(us)", 11, "%.0f", quantileUs("wal.fsync", 0.99)},
	// Result cache and client/cluster cache tier alike count into these.
	{"cache_hit_pct", "CACHE", 6, "%.1f%%", hitPct("core.cache_hits", "core.cache_misses")},
	{"queue_depth", "QD", 5, "%.0f", level("rpc.server.in_flight")},
	// How many of the group's backups currently hold a read lease.
	{"leases", "LEASES", 6, "%.0f", level("lease.held")},
	// Reads served locally by leased backups, and reads a backup refused
	// (no valid lease) and redirected to the primary.
	{"backup_reads_per_sec", "BKRD/S", 8, "%.1f", perSec("reads.backup_served")},
	{"bounced_reads_per_sec", "BNC/S", 8, "%.1f", perSec("reads.primary_bounced")},
}

// The reductions: each returns a column's Value.

// histPerSec is the named histogram's samples per window second.
func histPerSec(hist string) func(telemetry.RegistrySnapshot) float64 {
	return func(w telemetry.RegistrySnapshot) float64 { return over(w.Histograms[hist].Count, w.Seconds) }
}

// quantileUs is a quantile of the named histogram, in microseconds.
func quantileUs(hist string, q float64) func(telemetry.RegistrySnapshot) float64 {
	return func(w telemetry.RegistrySnapshot) float64 {
		return float64(w.Histograms[hist].Quantile(q).Microseconds())
	}
}

// perSec is the named counter's increments per window second.
func perSec(counter string) func(telemetry.RegistrySnapshot) float64 {
	return func(w telemetry.RegistrySnapshot) float64 { return over(w.Counters[counter], w.Seconds) }
}

// level is the named gauge, summed over the members.
func level(gauge string) func(telemetry.RegistrySnapshot) float64 {
	return func(w telemetry.RegistrySnapshot) float64 { return float64(w.Gauges[gauge]) }
}

// hitPct is 100·hits/(hits+misses) over the window's increments.
func hitPct(hits, misses string) func(telemetry.RegistrySnapshot) float64 {
	return func(w telemetry.RegistrySnapshot) float64 {
		return 100 * over(w.Counters[hits], float64(w.Counters[hits]+w.Counters[misses]))
	}
}

// over is n/d, zero when there is nothing to divide by.
func over(n uint64, d float64) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d
}

// GroupMetrics is one row of the cluster rollup: a replica group's merged
// view of the window since the aggregator's previous scrape. The same shape
// describes the whole cluster (ID ignored).
type GroupMetrics struct {
	ID      uint64   `json:"id"`
	Primary string   `json:"primary,omitempty"`
	Members []string `json:"members,omitempty"`
	Scraped int      `json:"scraped"`

	WindowSecs float64 `json:"window_seconds"`
	// Values holds one scalar per column, by the column's key.
	Values map[string]float64 `json:"values"`
	// Invoke is the merged windowed invoke histogram (with exemplars), for
	// consumers that want more than the columns' quantiles.
	Invoke telemetry.HistData `json:"invoke,omitempty"`
}

// ClusterMetrics is the aggregator's output: per-group rollups plus the
// cluster-wide merge.
type ClusterMetrics struct {
	UpdatedUnixNano int64          `json:"updated_unix_nano"`
	Members         int            `json:"members_known"`
	Scraped         int            `json:"members_scraped"`
	Groups          []GroupMetrics `json:"groups"`
	Cluster         GroupMetrics   `json:"cluster"`
}

// Aggregator periodically scrapes member metrics snapshots and merges them.
// The window it reports is its own: it keeps each member's previous scrape
// and rolls up what happened since, so other scrapers of the same nodes
// neither shorten nor lengthen it.
type Aggregator struct {
	svc      *Service
	interval time.Duration
	client   *http.Client

	mu   sync.Mutex
	prev map[string]telemetry.RegistrySnapshot // by member; ScrapeOnce's baseline
	cur  ClusterMetrics
	stop chan struct{}
	done chan struct{}
}

// DefaultScrapeInterval is the scrape period when none is given.
const DefaultScrapeInterval = 2 * time.Second

// NewAggregator builds an aggregator over svc's membership view.
func NewAggregator(svc *Service, interval time.Duration) *Aggregator {
	if interval <= 0 {
		interval = DefaultScrapeInterval
	}
	return &Aggregator{
		svc:      svc,
		interval: interval,
		client:   &http.Client{Timeout: 2 * time.Second},
		prev:     make(map[string]telemetry.RegistrySnapshot),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the scrape loop.
func (a *Aggregator) Start() {
	go func() {
		defer close(a.done)
		ticker := time.NewTicker(a.interval)
		defer ticker.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-ticker.C:
			}
			a.ScrapeOnce()
		}
	}()
}

// Close stops the scrape loop.
func (a *Aggregator) Close() {
	close(a.stop)
	<-a.done
}

// Snapshot returns the latest rollup.
func (a *Aggregator) Snapshot() ClusterMetrics {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

// ScrapeOnce scrapes every known member synchronously and rebuilds the
// rollup. Exposed so tests (and a fresh `lambdactl top`) don't have to wait
// for the ticker.
func (a *Aggregator) ScrapeOnce() ClusterMetrics {
	dir := a.svc.Directory()
	debugAddrs := a.svc.DebugAddrs()

	// Scrape each distinct member once, in parallel.
	members := make(map[string]bool)
	for _, g := range dir.Groups() {
		for _, m := range g.Replicas() {
			members[m] = true
		}
	}
	snaps := make(map[string]telemetry.RegistrySnapshot)
	var smu sync.Mutex
	var wg sync.WaitGroup
	for m := range members {
		dbg := debugAddrs[m]
		if dbg == "" {
			continue
		}
		wg.Add(1)
		go func(member, dbg string) {
			defer wg.Done()
			snap, err := a.fetch(dbg)
			if err != nil {
				return
			}
			smu.Lock()
			snaps[member] = snap
			smu.Unlock()
		}(m, dbg)
	}
	wg.Wait()

	// Turn each scrape into the member's window since the previous one (a
	// member seen for the first time reports since its start).
	a.mu.Lock()
	for m, cur := range snaps {
		snaps[m], a.prev[m] = cur.Sub(a.prev[m]), cur
	}
	a.mu.Unlock()

	out := ClusterMetrics{
		UpdatedUnixNano: time.Now().UnixNano(),
		Members:         len(members),
		Scraped:         len(snaps),
	}
	var all []telemetry.RegistrySnapshot
	for _, g := range dir.Groups() {
		var groupSnaps []telemetry.RegistrySnapshot
		for _, m := range g.Replicas() {
			if s, ok := snaps[m]; ok {
				groupSnaps = append(groupSnaps, s)
			}
		}
		gm := rollup(telemetry.MergeSnapshots(groupSnaps))
		gm.ID = g.ID
		gm.Primary = g.Primary
		gm.Members = g.Replicas()
		gm.Scraped = len(groupSnaps)
		out.Groups = append(out.Groups, gm)
		all = append(all, groupSnaps...)
	}
	sort.Slice(out.Groups, func(i, j int) bool { return out.Groups[i].ID < out.Groups[j].ID })
	out.Cluster = rollup(telemetry.MergeSnapshots(all))
	out.Cluster.Scraped = len(all)

	a.mu.Lock()
	a.cur = out
	a.mu.Unlock()
	return out
}

// fetch GETs one member's registry snapshot.
func (a *Aggregator) fetch(debugAddr string) (telemetry.RegistrySnapshot, error) {
	var snap telemetry.RegistrySnapshot
	resp, err := a.client.Get("http://" + debugAddr + "/metrics.json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("coordinator: scrape %s: %s", debugAddr, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// rollup derives the operator-facing scalars from a merged window.
func rollup(w telemetry.RegistrySnapshot) GroupMetrics {
	gm := GroupMetrics{
		WindowSecs: w.Seconds,
		Values:     make(map[string]float64, len(columns)),
		Invoke:     w.Histograms["core.invoke"],
	}
	for _, c := range columns {
		gm.Values[c.Key] = c.Value(w)
	}
	return gm
}

// FormatClusterMetrics renders the rollup as the `lambdactl top` table.
func FormatClusterMetrics(cm ClusterMetrics) string {
	var b strings.Builder
	age := time.Since(time.Unix(0, cm.UpdatedUnixNano)).Round(time.Second)
	if cm.UpdatedUnixNano == 0 {
		fmt.Fprintf(&b, "cluster: no scrape yet (%d member(s) known)\n", cm.Members)
		return b.String()
	}
	fmt.Fprintf(&b, "cluster: %d/%d member(s) scraped, window %.1fs, updated %v ago\n",
		cm.Scraped, cm.Members, cm.Cluster.WindowSecs, age)
	fmt.Fprintf(&b, "%-6s %-22s", "GROUP", "PRIMARY")
	for _, c := range columns {
		fmt.Fprintf(&b, " %*s", c.Width, c.Header)
	}
	b.WriteByte('\n')
	row := func(name, primary string, g GroupMetrics) {
		fmt.Fprintf(&b, "%-6s %-22s", name, primary)
		for _, c := range columns {
			fmt.Fprintf(&b, " %*s", c.Width, fmt.Sprintf(c.Format, g.Values[c.Key]))
		}
		b.WriteByte('\n')
	}
	for _, g := range cm.Groups {
		row(fmt.Sprintf("%d", g.ID), g.Primary, g)
	}
	row("ALL", "-", cm.Cluster)
	return b.String()
}
