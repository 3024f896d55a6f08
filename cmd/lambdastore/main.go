// Command lambdastore runs one LambdaStore storage node: it persists
// objects in the embedded LSM engine, executes their methods in the
// isolation runtime, and replicates committed write-sets to its group's
// backups. Configuration comes from a static cluster file and/or a
// coordinator service.
//
// Usage:
//
//	lambdastore -addr :7000 -data /var/lib/lambdastore -group 0 \
//	    -config cluster.json [-coordinators host:port,...]
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
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7000", "RPC listen address")
		dataDir    = flag.String("data", "", "data directory (required)")
		groupID    = flag.Uint64("group", 0, "replica group this node belongs to")
		configPath = flag.String("config", "", "static cluster configuration file (JSON)")
		coords     = flag.String("coordinators", "", "comma-separated coordinator addresses")
		cacheSize  = flag.Int("cache", 64<<10, "consistent result cache entries (0 disables)")
		fuel       = flag.Int64("fuel", core.DefaultFuel, "per-invocation fuel budget")
		debugAddr  = flag.String("debug", "", "debug HTTP address for /metrics, /traces, /healthz, pprof (empty disables)")
		tracing    = flag.Bool("trace", false, "record per-stage spans for every traced invocation")
		traceBuf   = flag.Int("trace-buffer", 0, "span ring-buffer size (0 = default)")
		slow       = flag.Duration("slow", 0, "log invocations slower than this (0 disables)")
		rejoin     = flag.Bool("rejoin", false, "anti-entropy rejoin: when deposed from the group, catch up from the primary via range digests and re-admit through the coordinator")
		recRate    = flag.Int("recovery-rate", 0, "rejoin catch-up streaming rate limit in bytes/sec (0 = unlimited)")
		recFull    = flag.Bool("recovery-full-resync", false, "ablation: stream every object on rejoin instead of only digest-divergent ranges")
		admQueue   = flag.Int("admission-queue", 0, "admission plane: bounded wait-queue size in front of execution; overload is shed with a retryable error (0 disables)")
		admDead    = flag.Duration("admission-deadline", 0, "admission plane: max queue wait before a request is shed (0 = default)")
		admLIFO    = flag.Bool("admission-lifo", false, "admission plane: drain the wait queue newest-first")
		admWorkers = flag.Int("admission-workers", 0, "admission plane: concurrent execution slots (0 = NumCPU)")
	)
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "lambdastore: -data is required")
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
		DebugAddr:              *debugAddr,
		Tracing:                *tracing,
		TraceBufferSize:        *traceBuf,
		SlowTraceThreshold:     *slow,
		Rejoin:                 *rejoin,
		RecoveryMaxBytesPerSec: *recRate,
		RecoveryFullResync:     *recFull,
		MaxConcurrentInvokes:   *admWorkers,
		AdmissionQueue:         *admQueue,
		AdmissionDeadline:      *admDead,
		AdmissionLIFO:          *admLIFO,
	}
	if *configPath != "" {
		cfg, err := cluster.LoadConfigFile(*configPath)
		if err != nil {
			log.Fatalf("lambdastore: %v", err)
		}
		opts.Directory = cfg.Directory()
		if *coords == "" && len(cfg.Coordinators) > 0 {
			opts.Coordinators = cfg.Coordinators
		}
	}
	if *coords != "" {
		opts.Coordinators = strings.Split(*coords, ",")
	}
	if *rejoin && len(opts.Coordinators) == 0 {
		log.Fatal("lambdastore: -rejoin needs a coordinator (-coordinators or a config with one)")
	}

	node, err := cluster.StartNode(opts)
	if err != nil {
		log.Fatalf("lambdastore: start: %v", err)
	}
	log.Printf("lambdastore: serving on %s (group %d, data %s)", node.Addr(), *groupID, *dataDir)
	if da := node.DebugAddr(); da != "" {
		log.Printf("lambdastore: debug endpoints on http://%s (tracing=%v)", da, *tracing)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("lambdastore: shutting down")
	if err := node.Close(); err != nil {
		log.Fatalf("lambdastore: close: %v", err)
	}
}
