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
		debugAddr = flag.String("debug", "", "debug HTTP address for /metrics, /cluster/metrics, /healthz, pprof (empty disables)")
		scrape    = flag.Duration("scrape-interval", coordinator.DefaultScrapeInterval, "member metrics scrape period for /cluster/metrics")
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
	svc := member.Service
	log.Printf("lambdacoord: replica %d serving on %s (%d peers)", *id, member.Addr, len(peerAddrs))

	var agg *coordinator.Aggregator
	if *debugAddr != "" {
		agg = coordinator.NewAggregator(svc, *scrape)
		agg.Start()
	}

	var dbg *debug.Server
	if *debugAddr != "" {
		docs := map[string]func() any{"/cluster/metrics": func() any { return agg.Snapshot() }}
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
	if dbg != nil {
		dbg.Close()
	}
	if agg != nil {
		agg.Close()
	}
	member.Close()
}
