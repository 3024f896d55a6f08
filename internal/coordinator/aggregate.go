// The coordinator's metrics aggregation plane. Nodes advertise their debug
// HTTP address in heartbeats; the Aggregator periodically scrapes each
// member's /metrics.json snapshot and merges the histograms (exact bucket
// addition — every histogram in the system shares one layout) into per-group
// and cluster-wide rollups. The result is served on the coordinator's
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

// GroupMetrics is one row of the cluster rollup: a replica group's merged
// windowed view. The same shape describes the whole cluster (ID ignored).
type GroupMetrics struct {
	ID      uint64   `json:"id"`
	Primary string   `json:"primary,omitempty"`
	Members []string `json:"members,omitempty"`
	Scraped int      `json:"scraped"`

	WindowSecs float64 `json:"window_seconds"`
	// OpsPerSec is the windowed invocation completion rate.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Windowed invoke latency quantiles, microseconds.
	P50Us  uint64 `json:"p50_us"`
	P99Us  uint64 `json:"p99_us"`
	P999Us uint64 `json:"p999_us"`
	// WalFsyncP99Us is the windowed p99 of WAL fsync latency.
	WalFsyncP99Us uint64 `json:"wal_fsync_p99_us"`
	// CacheHitRate is hits/(hits+misses) over the window, counting both the
	// result cache and the client/cluster cache tier.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// QueueDepth is the summed rpc.server.in_flight gauge.
	QueueDepth int64 `json:"queue_depth"`
	// Leases is the summed lease.held gauge — how many of the group's
	// backups currently hold a read lease.
	Leases int64 `json:"leases"`
	// BackupReadsPerSec is the windowed rate of reads served locally by
	// leased backups; BouncedReadsPerSec counts reads a backup refused
	// (no valid lease) and redirected to the primary.
	BackupReadsPerSec  float64 `json:"backup_reads_per_sec"`
	BouncedReadsPerSec float64 `json:"bounced_reads_per_sec"`
	// ShedPerSec is the windowed rate of invocations refused by the
	// admission plane, both causes (deadline, queue full) summed.
	ShedPerSec float64 `json:"shed_per_sec"`
	// AdmissionQueueDepth is the summed admission.queue_depth gauge.
	AdmissionQueueDepth int64 `json:"admission_queue_depth"`
	// Invoke is the merged windowed invoke histogram (with exemplars), for
	// consumers that want more than the precomputed quantiles.
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
type Aggregator struct {
	svc      *Service
	interval time.Duration
	client   *http.Client

	mu   sync.Mutex
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

// rollup derives the operator-facing scalars from a merged snapshot.
func rollup(m telemetry.RegistrySnapshot) GroupMetrics {
	gm := GroupMetrics{WindowSecs: m.WindowSecs}
	if inv, ok := m.Histograms["core.invoke"]; ok {
		gm.Invoke = inv.Window
		gm.P50Us = inv.Window.P50Us
		gm.P99Us = inv.Window.P99Us
		gm.P999Us = inv.Window.P999Us
		if m.WindowSecs > 0 {
			gm.OpsPerSec = float64(inv.Window.Count) / m.WindowSecs
		}
	}
	if fsync, ok := m.Histograms["wal.fsync"]; ok {
		gm.WalFsyncP99Us = fsync.Window.P99Us
	}
	hits := m.Counters["core.cache_hits"].RatePerSec
	misses := m.Counters["core.cache_misses"].RatePerSec
	if hits+misses > 0 {
		gm.CacheHitRate = hits / (hits + misses)
	}
	gm.QueueDepth = m.Gauges["rpc.server.in_flight"]
	gm.Leases = m.Gauges["lease.held"]
	gm.BackupReadsPerSec = m.Counters["reads.backup_served"].RatePerSec
	gm.BouncedReadsPerSec = m.Counters["reads.primary_bounced"].RatePerSec
	gm.ShedPerSec = m.Counters["admission.shed_deadline"].RatePerSec +
		m.Counters["admission.shed_full"].RatePerSec
	gm.AdmissionQueueDepth = m.Gauges["admission.queue_depth"]
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
	fmt.Fprintf(&b, "%-6s %-22s %8s %9s %9s %9s %11s %6s %5s %6s %8s %8s %8s %6s\n",
		"GROUP", "PRIMARY", "OPS/S", "P50(us)", "P99(us)", "P999(us)", "FSYNC99(us)", "CACHE", "QD", "LEASES", "BKRD/S", "BNC/S", "SHED/S", "QDEPTH")
	row := func(name, primary string, g GroupMetrics) {
		fmt.Fprintf(&b, "%-6s %-22s %8.1f %9d %9d %9d %11d %5.1f%% %5d %6d %8.1f %8.1f %8.1f %6d\n",
			name, primary, g.OpsPerSec, g.P50Us, g.P99Us, g.P999Us,
			g.WalFsyncP99Us, 100*g.CacheHitRate, g.QueueDepth,
			g.Leases, g.BackupReadsPerSec, g.BouncedReadsPerSec,
			g.ShedPerSec, g.AdmissionQueueDepth)
	}
	for _, g := range cm.Groups {
		row(fmt.Sprintf("%d", g.ID), g.Primary, g)
	}
	row("ALL", "-", cm.Cluster)
	return b.String()
}
