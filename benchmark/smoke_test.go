package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks the
// program against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs all four workloads at 1/200 scale: every metric named in
// BENCHMARK.json is reported, finite and non-negative; the oracle passes;
// the span file parses and every span's cause exists. It is also what
// keeps the benchmark compiling against the layers' public functions.
func TestSmoke(t *testing.T) {
	var bj benchmarkJSON
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	sameNames(t, "end_to_end", bj.EndToEnd, endToEnd)
	sameNames(t, "per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, wl := range bj.Workloads {
		spec := findWorkload(wl.Name)
		if spec == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		res, err := runWorkload(runConfig{spec: spec, seed: 7, seconds: defaultSeconds / 200.0, layers: true, scale: 1.0 / 200, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !res.correct || res.failed > 0 {
			t.Errorf("%s: oracle violations %v, %d failed ops %v", wl.Name, res.wrong, res.failed, res.errs)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			v, ok := res.metrics[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: metric %s = %v (reported=%v)", wl.Name, d.name, v, ok)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.name)
			}
		}
		checkTrace(t, res.traceFile)
	}
}

func sameNames(t *testing.T, list string, want []struct{ Name, Unit string }, have []metricDef) {
	t.Helper()
	if len(want) != len(have) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", list, len(want), len(have))
	}
	for i := range want {
		if want[i].Name != have[i].name || want[i].Unit != have[i].unit {
			t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", list, i, want[i].Name, want[i].Unit, have[i].name, have[i].unit)
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read span file: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	byID := make(map[int]span, len(tf.Spans))
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d ends before it starts", path, s.ID)
		}
		if s.Cause == 0 {
			continue
		}
		if c, ok := byID[s.Cause]; !ok || c.Req != s.Req {
			t.Errorf("%s: span %d (%s) names cause %d, which is not a span of request %d", path, s.ID, s.Name, s.Cause, s.Req)
		}
	}
}
