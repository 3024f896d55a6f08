// Command benchmark is the repository's yardstick: it boots the paper's
// configuration — one replica group of three storage nodes on loopback TCP
// and one client, all in this process — drives four Retwis workloads in a
// closed loop, checks their outputs, and reports end-to-end metrics (no
// spans) and per-layer metrics (a traced single-client replay plus deltas
// of the layers' public stats). README.md explains every choice.
//
//	go run -C benchmark .                      all four workloads, every metric
//	go run -C benchmark . -workload post_sync  one workload
//	go run -C benchmark . -calibrate 10        spreads and regression bounds
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the one BENCHMARK.json names: it prints one JSON object
// as its last line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the length of the
// measured window.
const defaultSeconds = 15

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only (default: both); with either, the last line is one JSON object")
	calibrate := fs.Int("calibrate", 0, "run every workload N times (N >= 5, seeds seed..seed+N-1) in child processes; print spreads and bounds as markdown")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	if *calibrate > 0 {
		if err := runCalibration(os.Stdout, *calibrate, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	specs := workloads
	if *workload != "" {
		spec := findWorkload(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		specs = []workloadSpec{*spec}
	}
	ok := true
	for i := range specs {
		// A traced-only run reports no setup_s, so it sets up once.
		cfg := runConfig{spec: &specs[i], seed: *seed, seconds: *seconds, layers: *trace != 0, scale: 1, setups: 1}
		if *trace != 1 {
			cfg.setups = setupRepeats
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		report(os.Stdout, cfg, res, *trace != 1)
		if *trace >= 0 {
			printJSON(os.Stdout, cfg, res)
		}
		ok = ok && res.correct
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints every metric by name with its unit, the environment stamp
// and the oracle's verdict.
func report(w io.Writer, cfg runConfig, res *result, endToEndToo bool) {
	fmt.Fprintf(w, "== %s\n  env: %s\n", cfg.spec.name, res.env)
	fmt.Fprintln(w, "  measured window (closed loop, no spans; the client and three nodes share this process):")
	if endToEndToo {
		printMetrics(w, endToEnd, res.metrics)
	}
	printMetrics(w, windowDiag, res.metrics)
	if cfg.layers {
		fmt.Fprintln(w, "  per layer (traced single-client replay; counts are deltas over the measured window):")
		printMetrics(w, perLayer[:len(perLayer)-len(windowDiag)], res.metrics)
		fmt.Fprintf(w, "  spans: %s\n", res.traceFile)
	}
	fmt.Fprintf(w, "  ops: attempted=%d failed=%d\n", res.attempted, res.failed)
	for _, e := range res.errs {
		fmt.Fprintf(w, "    failed: %s\n", e)
	}
	if res.correct {
		fmt.Fprintln(w, "  oracle: ok")
	} else {
		fmt.Fprintln(w, "  oracle: FAILED")
		for _, e := range res.wrong {
			fmt.Fprintf(w, "    %s\n", e)
		}
	}
}

// jsonResult is the driver's contract: exactly these keys.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the result line: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func printJSON(w io.Writer, cfg runConfig, res *result) {
	defs := endToEnd
	if cfg.layers {
		defs = perLayer
	}
	out := jsonResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		out.Metrics[d.name] = jsonMetric{Value: res.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", line)
}
