// Command retwis-bench reproduces the paper's evaluation (§5): it boots
// the aggregated LambdaStore deployment and the disaggregated serverless
// baseline on loopback, one at a time, drives the Retwis workloads (Post,
// GetTimeline, Follow) against each and prints Figures 1–2 as one table —
// jobs/s normalized to the aggregated design, median and p99 latency, and
// the disaggregated compute node's storage and nested RPCs per job — then
// Table 1's latency bands: a native-Go custom service, LambdaObjects, and
// conventional serverless warm and cold (the cold start is an emulated
// 100 ms provisioning time, so that row is modeled). -delay takes a
// comma-separated list of injected one-way network delays and measures
// Figures 1–2 at each (ablation A5); Table 1 runs at the first.
//
// Paper scale (10,000 accounts, 100 concurrent clients, 3 replicas):
//
//	retwis-bench
//
// Quick run with a delay sweep:
//
//	retwis-bench -accounts 1000 -ops 1000 -concurrency 32 -delay 0,200us,1ms
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"
)

func main() {
	cfg := config{}
	flag.IntVar(&cfg.accounts, "accounts", 10000, "number of user accounts")
	flag.IntVar(&cfg.concurrency, "concurrency", 100, "concurrent closed-loop clients")
	flag.IntVar(&cfg.ops, "ops", 5000, "operations per workload")
	flag.IntVar(&cfg.replicas, "replicas", 3, "storage nodes per replica group")
	delays := flag.String("delay", "0", "comma-separated injected one-way network delays per RPC; Figures 1-2 are measured at each")
	flag.StringVar(&cfg.dataRoot, "data", "", "scratch directory root (default: $TMPDIR)")
	flag.Parse()
	for _, s := range strings.Split(*delays, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("retwis-bench: -delay: %v", err)
		}
		cfg.delays = append(cfg.delays, d)
	}

	fmt.Printf("retwis-bench: %d accounts, %d clients, %d ops/workload, %d replicas, delays %v\n",
		cfg.accounts, cfg.concurrency, cfg.ops, cfg.replicas, cfg.delays)
	start := time.Now()
	rep, err := run(cfg)
	if err != nil {
		log.Fatalf("retwis-bench: %v", err)
	}
	fmt.Printf("completed in %v\n\n", time.Since(start).Round(time.Millisecond))
	rep.print(os.Stdout)
}
