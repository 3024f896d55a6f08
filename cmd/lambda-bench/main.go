// Command lambda-bench runs the Table 1 latency-band measurement and the
// design-choice ablations from DESIGN.md:
//
//	lambda-bench -table 1                 measured Table 1 bands
//	lambda-bench -ablation cache          A1: consistent result cache
//	lambda-bench -ablation replication    A2: replication factor 1/2/3
//	lambda-bench -ablation fuel           A3: metering overhead
//	lambda-bench -ablation sched          A4: per-object scheduling
//	lambda-bench -ablation netdelay       A5: network-delay sweep
//	lambda-bench -recovery                rejoin cost: digest diff vs full resync
//	lambda-bench -rebalance               many-group placement + Zipf hot-spot convergence
//	lambda-bench -read-scaleout           leased replica reads vs primary-only routing
//	lambda-bench -overload                open-loop latency vs offered load, shed on/off
//	lambda-bench -all                     everything
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"time"

	"lambdastore/internal/bench"
)

func main() {
	var (
		accounts    = flag.Int("accounts", 2000, "number of user accounts")
		concurrency = flag.Int("concurrency", 50, "concurrent closed-loop clients")
		ops         = flag.Int("ops", 2000, "operations per measurement")
		table       = flag.Int("table", 0, "run table N (1)")
		ablation    = flag.String("ablation", "", "run one ablation: cache|replication|fuel|sched|netdelay")
		all         = flag.Bool("all", false, "run everything")
		dataRoot    = flag.String("data", "", "scratch directory root")
		recov       = flag.Bool("recovery", false, "run the rejoin benchmark (range-digest diff vs full resync)")
		rebal       = flag.Bool("rebalance", false, "run the rebalance benchmark (throughput vs groups, Zipf hot-spot convergence)")
		readScale   = flag.Bool("read-scaleout", false, "run the read scale-out benchmark (leased replica reads vs primary-only)")
		overload    = flag.Bool("overload", false, "run the overload benchmark (open-loop Poisson sweep past saturation, admission shedding on/off)")
		out         = flag.String("out", "", "write the benchmark report JSON to this path")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("lambda-bench: cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("lambda-bench: cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := bench.DefaultOptions()
	opts.Accounts = *accounts
	opts.Concurrency = *concurrency
	opts.OpsPerWorkload = *ops
	opts.DataRoot = *dataRoot

	ran := false
	if *table == 1 || *all {
		ran = true
		rows, err := bench.RunTable1(opts)
		if err != nil {
			log.Fatalf("lambda-bench: table 1: %v", err)
		}
		bench.PrintTable1(os.Stdout, rows)
		fmt.Println()
	}

	runAblation := func(name string) {
		ran = true
		switch name {
		case "cache":
			res, err := bench.RunAblationCache(opts)
			if err != nil {
				log.Fatalf("lambda-bench: cache: %v", err)
			}
			bench.PrintAblation(os.Stdout, "A1: consistent result cache (GetTimeline, hot read set)", res, nil)
		case "replication":
			res, err := bench.RunAblationReplication(opts)
			if err != nil {
				log.Fatalf("lambda-bench: replication: %v", err)
			}
			bench.PrintAblation(os.Stdout, "A2: replication factor (Follow)", res, nil)
		case "fuel":
			metered, unmetered, err := bench.FuelAblation(20_000_000)
			if err != nil {
				log.Fatalf("lambda-bench: fuel: %v", err)
			}
			fmt.Printf("A3: fuel metering overhead: metered=%v unmetered=%v overhead=%.2fx\n",
				metered, unmetered, float64(metered)/float64(unmetered))
		case "sched":
			res, probes, err := bench.RunAblationSched(opts)
			if err != nil {
				log.Fatalf("lambda-bench: sched: %v", err)
			}
			bench.PrintAblation(os.Stdout, "A4: per-object scheduling (Follow)", res, bench.ProbeNotes(probes))
		case "netdelay":
			delays := []time.Duration{0, 100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond}
			out, err := bench.RunAblationNetDelay(opts, delays)
			if err != nil {
				log.Fatalf("lambda-bench: netdelay: %v", err)
			}
			fmt.Println("A5: injected one-way network delay (Post workload)")
			for _, d := range delays {
				pair := out[d]
				fmt.Printf("  delay=%-8v agg p50=%-10v dis p50=%-10v gap=%v\n",
					d, pair[0].Latency.Quantile(0.5), pair[1].Latency.Quantile(0.5),
					pair[1].Latency.Quantile(0.5)-pair[0].Latency.Quantile(0.5))
			}
		default:
			log.Fatalf("lambda-bench: unknown ablation %q", name)
		}
		fmt.Println()
	}

	if *recov {
		ran = true
		if _, err := bench.RunRecovery(opts, *out, os.Stdout); err != nil {
			log.Fatalf("lambda-bench: recovery: %v", err)
		}
		fmt.Println()
	}
	if *rebal {
		ran = true
		if _, err := bench.RunRebalance(opts, *out, os.Stdout); err != nil {
			log.Fatalf("lambda-bench: rebalance: %v", err)
		}
		fmt.Println()
	}
	if *readScale {
		ran = true
		if _, err := bench.RunReadScaleout(opts, *out, os.Stdout); err != nil {
			log.Fatalf("lambda-bench: read-scaleout: %v", err)
		}
		fmt.Println()
	}
	if *overload {
		ran = true
		if _, err := bench.RunOverload(opts, *out, os.Stdout); err != nil {
			log.Fatalf("lambda-bench: overload: %v", err)
		}
		fmt.Println()
	}
	if *ablation != "" {
		runAblation(*ablation)
	}
	if *all {
		for _, a := range []string{"cache", "replication", "fuel", "sched", "netdelay"} {
			runAblation(a)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
