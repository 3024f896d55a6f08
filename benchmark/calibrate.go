package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runCalibration measures how well the end-to-end metrics repeat: it runs
// every workload n times, each run a child process of this program with its
// own seed — exactly how the driver runs it — and prints, per metric and
// workload, the median, quartiles and range. Runs alternate between two
// sets, A (even) and B (odd), so two medians of the same commit, taken
// interleaved in time, can be compared. It then derives each metric's
// regression bound from the widest spread over the workloads.
func runCalibration(w io.Writer, n int, seed int64, seconds float64) error {
	if n < 5 {
		return fmt.Errorf("calibrate needs at least 5 runs, got %d", n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric] holds one value per run.
	values := map[string]map[string][]float64{}
	var env string
	failedOps := 0
	for i := 0; i < n; i++ {
		for _, spec := range workloads {
			cmd := exec.Command(self, "-workload", spec.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %d of %s: %w\n%s", i, spec.name, err, out)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res jsonResult
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("run %d of %s: %w", i, spec.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("run %d of %s: the oracle failed\n%s", i, spec.name, out)
			}
			failedOps += res.Failed
			if values[spec.name] == nil {
				values[spec.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[spec.name][name] = append(values[spec.name][name], m.Value)
			}
			// The unbounded window metrics are not in an untraced run's
			// result line; read them, and the environment stamp, off the
			// report above it.
			for _, l := range lines {
				f := strings.Fields(string(l))
				if len(f) == 3 && strings.HasPrefix(f[0], "diag.") {
					if v, err := strconv.ParseFloat(f[1], 64); err == nil {
						values[spec.name][f[0]] = append(values[spec.name][f[0]], v)
					}
				}
				if len(f) > 0 && f[0] == "env:" {
					env = strings.TrimSpace(string(l))
				}
			}
			fmt.Fprintf(os.Stderr, "calibrate: run %d/%d %s done\n", i+1, n, spec.name)
		}
	}

	fmt.Fprintf(w, "Calibration: %d runs per workload, seeds %d..%d, %g s windows; %d ops failed in all.\n\nLast run's %s\n\n", n, seed, seed+int64(n)-1, seconds, failedOps, env)
	fmt.Fprintln(w, "Spread is (q3-q1)/median with `statistics.quantiles(n=4)` quartiles; range is (max-min)/median;")
	fmt.Fprintln(w, "A and B are the medians of the even and odd runs, A/B diff their distance relative to A.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| metric | workload | median | q1 | q3 | spread | range | median A | median B | A/B diff |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	worst := map[string]float64{}
	worstAB := map[string]float64{}
	calibrated := append(append([]metricDef(nil), endToEnd...), windowDiag[:len(windowDiag)-1]...) // error_rate is 0
	for _, def := range calibrated {
		for _, spec := range workloads {
			xs := values[spec.name][def.name]
			var a, b []float64
			for i, x := range xs {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			med := median(append([]float64(nil), xs...))
			q1, q3 := quartiles(xs)
			lo, hi := minMax(xs)
			ma, mb := median(a), median(b)
			spread, ab := ratio(q3-q1, med), ratio(math.Abs(ma-mb), ma)
			worst[def.name] = math.Max(worst[def.name], spread)
			worstAB[def.name] = math.Max(worstAB[def.name], ab)
			fmt.Fprintf(w, "| `%s` | %s | %.4g | %.4g | %.4g | %.2f%% | %.2f%% | %.4g | %.4g | %.2f%% |\n",
				def.name, spec.name, med, q1, q3, 100*spread, 100*ratio(hi-lo, med), ma, mb, 100*ab)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Bounds: three times the widest spread over the workloads, so that every spread stays under a third")
	fmt.Fprintln(w, "of its bound, rounded up to a hundredth and at least 0.05. No bound may exceed 0.25: a metric that")
	fmt.Fprintln(w, "would need more is not bounded and is reported with the per-layer metrics as `diag.<name>`.")
	fmt.Fprintln(w, "`setup_s` must be an end-to-end metric and takes the largest bound, 0.25.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| metric | widest spread | widest A/B diff | bound |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, def := range calibrated {
		fmt.Fprintf(w, "| `%s` | %.2f%% | %.2f%% | %s |\n", def.name, 100*worst[def.name], 100*worstAB[def.name], boundFor(def.name, worst[def.name]))
	}
	return nil
}

// boundFor turns a metric's widest observed spread into its bound.
func boundFor(name string, spread float64) string {
	bound := math.Max(0.05, math.Ceil(300*spread)/100)
	switch {
	case name == "setup_s":
		return "0.25"
	case bound > 0.25:
		return fmt.Sprintf("none (%.2f): per layer", bound)
	}
	return fmt.Sprintf("%.2f", bound)
}

// quartiles is Python's statistics.quantiles(xs, n=4), the default
// exclusive method, which is what the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)+1)
		j := int(math.Floor(h))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
