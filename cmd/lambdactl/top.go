package main

// `lambdactl top`: the cluster's load and tail latency per replica group,
// rolled up from the nodes' own registry snapshots. top samples every
// replica over the node.stats RPC, keeps its previous sample of each node
// and takes cur.Sub(prev), so the window it reports is its own however
// many other readers sample the same nodes; it merges each group's windows
// (exact bucket addition: every histogram in the system shares one layout)
// and reduces the merge through the column table.

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

// column is one scalar of the rollup, written once: its key in
// groupMetrics.Values, how top heads and formats it, and how it reduces
// from a merged window — which instruments it reads is part of that. A
// column added here shows up in the table without another edit.
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

// groupMetrics is one row of the rollup: a replica group's merged window.
// The same shape describes the whole cluster (ID and Primary unset).
type groupMetrics struct {
	ID         uint64
	Primary    string
	WindowSecs float64
	// Values holds one scalar per column, by the column's key.
	Values map[string]float64
}

// clusterMetrics is one sample of the rollup: per-group rows plus the
// cluster-wide merge.
type clusterMetrics struct {
	Members int // replicas in the directory
	Scraped int // replicas that answered
	Groups  []groupMetrics
	Cluster groupMetrics
}

// rollup derives the operator-facing scalars from a merged window.
func rollup(w telemetry.RegistrySnapshot) groupMetrics {
	gm := groupMetrics{WindowSecs: w.Seconds, Values: make(map[string]float64, len(columns))}
	for _, c := range columns {
		gm.Values[c.Key] = c.Value(w)
	}
	return gm
}

// formatTop renders the rollup as top's table.
func formatTop(cm clusterMetrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d/%d member(s) scraped, window %.1fs\n", cm.Scraped, cm.Members, cm.Cluster.WindowSecs)
	fmt.Fprintf(&b, "%-6s %-22s", "GROUP", "PRIMARY")
	for _, c := range columns {
		fmt.Fprintf(&b, " %*s", c.Width, c.Header)
	}
	b.WriteByte('\n')
	row := func(name, primary string, g groupMetrics) {
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

// sampler is one reader of the nodes' registries. It keeps its previous
// sample of each node, because a node keeps no window: each window it
// reports runs from its own previous sample of that node.
type sampler struct {
	fetch func(addr string) ([]byte, error) // a node's snapshot JSON
	prev  map[string]telemetry.RegistrySnapshot
}

func newSampler(fetch func(addr string) ([]byte, error)) *sampler {
	return &sampler{fetch: fetch, prev: make(map[string]telemetry.RegistrySnapshot)}
}

// next samples addr: its cumulative snapshot and the window since this
// sampler's previous sample of it (since the node's start, the first time).
// A node that does not answer keeps its previous sample.
func (s *sampler) next(addr string) (cur, win telemetry.RegistrySnapshot, err error) {
	body, err := s.fetch(addr)
	if err == nil {
		err = json.Unmarshal(body, &cur)
	}
	if err != nil {
		return cur, win, err
	}
	win, s.prev[addr] = cur.Sub(s.prev[addr]), cur
	return cur, win, nil
}

// top samples every replica in dir and rolls the windows up per group and
// cluster-wide.
func (s *sampler) top(dir *shard.Directory) clusterMetrics {
	var cm clusterMetrics
	var all []telemetry.RegistrySnapshot
	for _, g := range dir.Groups() {
		var wins []telemetry.RegistrySnapshot
		for _, addr := range g.Replicas() {
			cm.Members++
			if _, win, err := s.next(addr); err == nil {
				wins = append(wins, win)
			}
		}
		gm := rollup(telemetry.MergeSnapshots(wins))
		gm.ID, gm.Primary = g.ID, g.Primary
		cm.Groups = append(cm.Groups, gm)
		all = append(all, wins...)
	}
	cm.Scraped = len(all)
	cm.Cluster = rollup(telemetry.MergeSnapshots(all))
	return cm
}

// runTop prints the table -n times (0: forever), -interval apart, each over
// the window since the sample before it.
func runTop(o *operator, client *cluster.Client, args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	count := fs.Int("n", 1, "iterations (0 = forever)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval: each table's window")
	fs.Parse(args)
	s := newSampler(o.snapshot)
	s.top(client.Directory()) // the first table's window starts here
	for i := 0; *count == 0 || i < *count; i++ {
		time.Sleep(*interval)
		fmt.Fprint(o.out, formatTop(s.top(client.Directory())))
	}
}
