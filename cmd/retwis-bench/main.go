// Command retwis-bench reproduces the paper's evaluation (§5): it boots
// the aggregated LambdaStore architecture and the disaggregated serverless
// baseline on loopback, runs the Retwis workloads (Post, GetTimeline,
// Follow) against both at the paper's scale, and prints Figure 1
// (normalized throughput) and Figure 2 (median/p99 latency).
//
// Paper-scale run (10,000 accounts, 100 concurrent clients, 3 replicas):
//
//	retwis-bench
//
// Quick run:
//
//	retwis-bench -accounts 1000 -ops 1000 -concurrency 32
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"lambdastore/internal/bench"
)

func main() {
	var (
		accounts    = flag.Int("accounts", 10000, "number of user accounts")
		concurrency = flag.Int("concurrency", 100, "concurrent closed-loop clients")
		ops         = flag.Int("ops", 5000, "operations per workload")
		replicas    = flag.Int("replicas", 3, "storage nodes per replica group")
		delay       = flag.Duration("delay", 0, "injected one-way network delay per RPC")
		cache       = flag.Int("cache", 64<<10, "result cache entries (0 disables)")
		fig         = flag.Int("fig", 0, "print only figure 1 or 2 (0 = both)")
		dataRoot    = flag.String("data", "", "scratch directory root (default: $TMPDIR)")
	)
	flag.Parse()

	opts := bench.DefaultOptions()
	opts.Accounts = *accounts
	opts.Concurrency = *concurrency
	opts.OpsPerWorkload = *ops
	opts.Replicas = *replicas
	opts.NetDelay = *delay
	opts.Node.Runtime.CacheEntries = *cache
	opts.DataRoot = *dataRoot

	fmt.Printf("retwis-bench: %d accounts, %d clients, %d ops/workload, %d replicas, delay %v\n",
		opts.Accounts, opts.Concurrency, opts.OpsPerWorkload, opts.Replicas, opts.NetDelay)

	start := time.Now()
	agg, dis, err := bench.RunComparison(opts)
	if err != nil {
		log.Fatalf("retwis-bench: %v", err)
	}
	fmt.Printf("completed in %v\n\n", time.Since(start).Round(time.Millisecond))

	if *fig == 0 || *fig == 1 {
		bench.PrintFigure1(os.Stdout, agg, dis)
		fmt.Println()
	}
	if *fig == 0 || *fig == 2 {
		bench.PrintFigure2(os.Stdout, agg, dis)
	}
}
