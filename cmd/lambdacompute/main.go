// Command lambdacompute runs one compute node of the *disaggregated*
// baseline architecture (paper §4.1): it executes guest functions in the
// same isolation runtime as LambdaStore, but reaches storage over the
// network for every data access and routes nested invocations back through
// the load balancer. It exists so the paper's comparison can be deployed
// for real, not only inside the benchmark harness.
//
// Usage:
//
//	lambdacompute -addr :7200 -storage host:7000 [-lb host:7300]
//
// To also run the load balancer in this process:
//
//	lambdacompute -addr :7200 -storage host:7000 -with-lb :7300 -lb-log /tmp/lblog
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"lambdastore/internal/baseline"
	"lambdastore/internal/core"
	"lambdastore/internal/debug"
	"lambdastore/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7200", "RPC listen address")
		storage   = flag.String("storage", "", "storage primary address (required)")
		lbAddr    = flag.String("lb", "", "external load balancer address for nested calls")
		withLB    = flag.String("with-lb", "", "also run a load balancer on this address")
		lbLog     = flag.String("lb-log", "", "request log directory for -with-lb")
		fuel      = flag.Int64("fuel", core.DefaultFuel, "per-invocation fuel budget")
		debugAddr = flag.String("debug", "", "pprof and /metrics text over HTTP on this address (empty disables; every other operator read and control is on the RPC port)")
	)
	flag.Parse()
	if *storage == "" {
		fmt.Fprintln(os.Stderr, "lambdacompute: -storage is required")
		flag.Usage()
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	compute, err := baseline.StartCompute(baseline.ComputeOptions{
		Addr:    *addr,
		Storage: *storage,
		Fuel:    *fuel,
		Metrics: reg,
	})
	if err != nil {
		log.Fatalf("lambdacompute: start: %v", err)
	}
	log.Printf("lambdacompute: serving on %s (storage %s)", compute.Addr(), *storage)

	if *debugAddr != "" {
		dbg, err := debug.Start(*debugAddr, reg)
		if err != nil {
			log.Fatalf("lambdacompute: debug: %v", err)
		}
		defer dbg.Close()
		log.Printf("lambdacompute: pprof and /metrics on http://%s", dbg.Addr())
	}

	var lb *baseline.LoadBalancer
	if *withLB != "" {
		if *lbLog == "" {
			log.Fatalf("lambdacompute: -with-lb requires -lb-log")
		}
		lb, err = baseline.StartLB(baseline.LBOptions{
			Addr:     *withLB,
			LogDir:   *lbLog,
			Computes: []string{compute.Addr()},
		}, reg)
		if err != nil {
			log.Fatalf("lambdacompute: lb: %v", err)
		}
		compute.SetLoadBalancer(lb.Addr())
		log.Printf("lambdacompute: load balancer on %s (log %s)", lb.Addr(), *lbLog)
	} else if *lbAddr != "" {
		compute.SetLoadBalancer(*lbAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("lambdacompute: shutting down")
	if lb != nil {
		lb.Close()
	}
	compute.Close()
}
