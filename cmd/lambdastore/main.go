// Command lambdastore runs one LambdaStore storage node: it persists
// objects in the embedded LSM engine, executes their methods in the
// isolation runtime, and replicates committed write-sets to its group's
// backups. Its view of the cluster comes from the coordinator service
// alone (groups are seeded there with lambdactl set-group); a node that
// finds itself outside its group (evicted while it was down) catches up
// from the primary and re-admits itself.
//
// Usage:
//
//	lambdastore -addr :7000 -data /var/lib/lambdastore -group 0 \
//	    -coordinators host:port,...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/debug"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7000", "RPC listen address")
		dataDir   = flag.String("data", "", "data directory (required)")
		groupID   = flag.Uint64("group", 0, "replica group this node belongs to")
		coords    = flag.String("coordinators", "", "comma-separated coordinator addresses (required)")
		cacheSize = flag.Int("cache", 64<<10, "consistent result cache entries (0 disables)")
		fuel      = flag.Int64("fuel", core.DefaultFuel, "per-invocation fuel budget")
		debugAddr = flag.String("debug", "", "pprof and /metrics text over HTTP on this address (empty disables; every other operator read and control is on the RPC port)")
		tracing   = flag.Bool("trace", false, "record per-stage spans for every traced invocation")
		slow      = flag.Duration("slow", 0, "log invocations slower than this (0 disables)")
		recRate   = flag.Int("recovery-rate", 0, "rejoin catch-up streaming rate limit in bytes/sec (0 = unlimited)")
	)
	flag.Parse()
	if *dataDir == "" || *coords == "" {
		fmt.Fprintln(os.Stderr, "lambdastore: -data and -coordinators are required")
		flag.Usage()
		os.Exit(2)
	}

	opts := cluster.NodeOptions{
		Addr:    *addr,
		DataDir: *dataDir,
		GroupID: *groupID,
		Runtime: core.Options{
			Fuel:         *fuel,
			CacheEntries: *cacheSize,
		},
		Tracing:                *tracing,
		SlowTraceThreshold:     *slow,
		RecoveryMaxBytesPerSec: *recRate,
		Coordinators:           strings.Split(*coords, ","),
	}

	node, err := cluster.StartNode(opts)
	if err != nil {
		log.Fatalf("lambdastore: start: %v", err)
	}
	log.Printf("lambdastore: serving on %s (group %d, data %s)", node.Addr(), *groupID, *dataDir)
	if *debugAddr != "" {
		dbg, err := debug.Start(*debugAddr, node.Metrics())
		if err != nil {
			log.Fatalf("lambdastore: debug: %v", err)
		}
		defer dbg.Close()
		log.Printf("lambdastore: pprof and /metrics on http://%s", dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("lambdastore: shutting down")
	if err := node.Close(); err != nil {
		log.Fatalf("lambdastore: close: %v", err)
	}
}
