// Command lambdacoord runs one replica of the Paxos-replicated cluster
// coordination service (paper §4.2.1): membership via heartbeats, replica
// group configuration, failover promotions, and microshard placement
// overrides.
//
// Usage (three replicas):
//
//	lambdacoord -id 1 -addr :7101 -peers 1=host1:7101,2=host2:7102,3=host3:7103
//	lambdacoord -id 2 -addr :7102 -peers ...
//	lambdacoord -id 3 -addr :7103 -peers ...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lambdastore/internal/coordinator"
	"lambdastore/internal/debug"
	"lambdastore/internal/paxos"
	"lambdastore/internal/rebalance"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

func parsePeers(s string) (map[uint64]string, error) {
	addrs := make(map[uint64]string)
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		idStr, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want id=addr)", part)
		}
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q", idStr)
		}
		addrs[id] = addr
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no peers given")
	}
	return addrs, nil
}

func main() {
	var (
		id        = flag.Uint64("id", 0, "this replica's Paxos identity (required, unique)")
		addr      = flag.String("addr", "127.0.0.1:7101", "RPC listen address")
		peers     = flag.String("peers", "", "all replicas as id=addr,... (including self)")
		hbTimeout = flag.Duration("heartbeat-timeout", 2*time.Second, "declare a node dead after this silence")
		dataDir   = flag.String("data", "", "directory for the durable acceptor log (strongly recommended)")
		debugAddr = flag.String("debug", "", "debug HTTP address for /metrics, /cluster/metrics, /rebalance, /healthz, pprof (empty disables)")
		scrape    = flag.Duration("scrape-interval", coordinator.DefaultScrapeInterval, "member metrics scrape period for /cluster/metrics")
		rebalInt  = flag.Duration("rebalance-interval", 0, "load-aware rebalancer observation window; 0 disables (enable on ONE replica only)")
		rebalDry  = flag.Bool("rebalance-dry-run", false, "plan and record migrations without executing them")
		shedAlert = flag.Float64("overload-alert", 0, "log an overload alert when the cluster-wide shed rate exceeds this many requests/sec (0 disables; needs -debug for the scraper)")
	)
	flag.Parse()
	if *id == 0 || *peers == "" {
		fmt.Fprintln(os.Stderr, "lambdacoord: -id and -peers are required")
		flag.Usage()
		os.Exit(2)
	}
	peerAddrs, err := parsePeers(*peers)
	if err != nil {
		log.Fatalf("lambdacoord: %v", err)
	}
	if _, ok := peerAddrs[*id]; !ok {
		log.Fatalf("lambdacoord: -peers must include this replica (id %d)", *id)
	}

	reg := telemetry.NewRegistry()
	var stable paxos.Stable
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("lambdacoord: %v", err)
		}
		file, err := paxos.OpenFileStable(fmt.Sprintf("%s/acceptor-%d.log", *dataDir, *id))
		if err != nil {
			log.Fatalf("lambdacoord: %v", err)
		}
		defer file.Close()
		stable = file
	} else {
		log.Printf("lambdacoord: WARNING: running without -data; acceptor state will not survive restarts")
	}
	member, err := coordinator.Serve(*id, peerAddrs, *addr, stable, coordinator.Options{
		HeartbeatTimeout: *hbTimeout,
	}, reg)
	if err != nil {
		log.Fatalf("lambdacoord: %v", err)
	}
	svc, pool := member.Service, member.Pool
	log.Printf("lambdacoord: replica %d serving on %s (%d peers)", *id, member.Addr, len(peerAddrs))

	var agg *coordinator.Aggregator
	if *debugAddr != "" {
		agg = coordinator.NewAggregator(svc, *scrape)
		agg.Start()
	}

	// Overload watcher: surface cluster-wide admission shedding in the
	// coordinator log so an operator sees overload without watching
	// `lambdactl top`. Piggybacks on the aggregator's scrape cadence.
	alertStop := make(chan struct{})
	if *shedAlert > 0 && agg != nil {
		go func() {
			ticker := time.NewTicker(*scrape)
			defer ticker.Stop()
			for {
				select {
				case <-alertStop:
					return
				case <-ticker.C:
				}
				all := agg.Snapshot().Cluster.Values
				if all["shed_per_sec"] > *shedAlert {
					log.Printf("lambdacoord: OVERLOAD: cluster shedding %.1f req/s (threshold %.1f), admission queue depth %.0f",
						all["shed_per_sec"], *shedAlert, all["admission_queue_depth"])
				}
			}
		}()
	}

	// The load-aware rebalancer: samples every primary's windowed hot-object
	// counters, folds in the aggregator's tail-latency rollups, and moves
	// hot microshards through the live-migration machinery. Cutovers are
	// epoch-fenced through the replicated log, so a second replica running
	// the planner cannot corrupt placement — but it would double the move
	// traffic, hence "one replica only".
	var reb *rebalance.Rebalancer
	if *rebalInt > 0 {
		ropts := rebalance.Options{
			Pool:     pool,
			Config:   func() (*shard.Directory, error) { return svc.Directory(), nil },
			Interval: *rebalInt,
			DryRun:   *rebalDry,
			Metrics:  reg,
			Log:      log.Printf,
		}
		if agg != nil {
			ropts.Rollup = func() map[uint64]rebalance.GroupLoad {
				snap := agg.Snapshot()
				out := make(map[uint64]rebalance.GroupLoad, len(snap.Groups))
				for _, g := range snap.Groups {
					out[g.ID] = rebalance.GroupLoad{
						ID:         g.ID,
						P99Us:      uint64(g.Values["p99_us"]),
						QueueDepth: int64(g.Values["queue_depth"]),
					}
				}
				return out
			}
		}
		reb = rebalance.New(ropts)
		reb.Start()
		log.Printf("lambdacoord: rebalancer on (window %v, dry-run %v)", *rebalInt, *rebalDry)
	}

	var dbg *debug.Server
	if *debugAddr != "" {
		docs := map[string]func() any{"/cluster/metrics": func() any { return agg.Snapshot() }}
		if reb != nil {
			docs["/rebalance"] = func() any { return reb.Status() }
		}
		dbg, err = debug.Start(*debugAddr, debug.Options{Registry: reg, JSON: docs})
		if err != nil {
			log.Fatalf("lambdacoord: debug: %v", err)
		}
		log.Printf("lambdacoord: debug endpoints on http://%s", dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("lambdacoord: shutting down")
	close(alertStop)
	if dbg != nil {
		dbg.Close()
	}
	if reb != nil {
		reb.Close()
	}
	if agg != nil {
		agg.Close()
	}
	member.Close()
}
