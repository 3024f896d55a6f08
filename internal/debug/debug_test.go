package debug

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"lambdastore/internal/telemetry"
)

func get(t *testing.T, srv *Server, path string) (string, int) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return string(body), resp.StatusCode
}

// textNames reduces /metrics text to the instrument names it mentions:
// a histogram's five summary lines collapse to its name.
func textNames(text string) map[string]bool {
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		name, _, _ := strings.Cut(line, " ")
		for _, suffix := range []string{"_count", "_mean_us", "_p50_us", "_p99_us", "_max_us", "_mean", "_p50", "_p99", "_max"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				name = base
				break
			}
		}
		names[name] = true
	}
	return names
}

// TestMetricsTextAndJSONAgree pins the one-surface property at the HTTP
// edge: /metrics is a rendering of the very snapshot /metrics.json serves,
// so the two list the same instruments — sampled gauges included — with the
// same values, and a histogram's unit decides its text suffix.
func TestMetricsTextAndJSONAgree(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("core.commits").Add(7)
	reg.Gauge("rpc.server.in_flight").Set(2)
	reg.GaugeFunc("core.pool_idle", func() int64 { return 5 })
	reg.Histogram("core.invoke").Record(300 * time.Microsecond)
	reg.CountHistogram("repl.batch_size").Observe(4)
	srv, err := Start("127.0.0.1:0", Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	text, _ := get(t, srv, "/metrics")
	body, _ := get(t, srv, "/metrics.json")
	var snap telemetry.RegistrySnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json: %v\n%s", err, body)
	}

	inJSON := map[string]bool{}
	for n := range snap.Counters {
		inJSON[n] = true
	}
	for n := range snap.Gauges {
		inJSON[n] = true
	}
	for n := range snap.Histograms {
		inJSON[n] = true
	}
	inText := textNames(text)
	for n := range inJSON {
		if !inText[n] {
			t.Errorf("%s is in /metrics.json but not in /metrics:\n%s", n, text)
		}
	}
	for n := range inText {
		if !inJSON[n] {
			t.Errorf("%s is in /metrics but not in /metrics.json", n)
		}
	}
	if len(inJSON) != 5 {
		t.Errorf("/metrics.json lists %d instruments, want the 5 registered: %v", len(inJSON), inJSON)
	}
	for _, line := range []string{
		"core.commits 7\n", "rpc.server.in_flight 2\n", "core.pool_idle 5\n",
		"core.invoke_count 1\n", fmt.Sprintf("core.invoke_p99_us %d\n", snap.Histograms["core.invoke"].P99Us),
		"repl.batch_size_count 1\n", "repl.batch_size_max 4\n", "repl.batch_size_mean 4\n",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("/metrics lacks %q:\n%s", line, text)
		}
	}
	if strings.Contains(text, "repl.batch_size_max_us") {
		t.Errorf("a count histogram is rendered as microseconds:\n%s", text)
	}
	// The text is a rendering of the snapshot and of nothing else.
	if !strings.Contains(RenderMetrics(snap), "core.commits 7\n") {
		t.Errorf("RenderMetrics of the decoded snapshot lost a counter:\n%s", RenderMetrics(snap))
	}
}

// TestJSONEndpointMap checks that the server serves exactly the status
// documents it was handed — each re-evaluated per request — and nothing
// else, and that a server with no registry at all still answers.
func TestJSONEndpointMap(t *testing.T) {
	calls := 0
	srv, err := Start("127.0.0.1:0", Options{JSON: map[string]func() any{
		"/recovery":        func() any { calls++; return map[string]int{"rejoins": calls} },
		"/cluster/metrics": func() any { return []string{"g0"} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if body, code := get(t, srv, "/recovery"); code != http.StatusOK || strings.TrimSpace(body) != `{"rejoins":1}` {
		t.Errorf("/recovery = %d %q", code, body)
	}
	if body, _ := get(t, srv, "/recovery"); strings.TrimSpace(body) != `{"rejoins":2}` {
		t.Errorf("/recovery second read = %q, want the document re-evaluated", body)
	}
	if body, code := get(t, srv, "/cluster/metrics"); code != http.StatusOK || strings.TrimSpace(body) != `["g0"]` {
		t.Errorf("/cluster/metrics = %d %q", code, body)
	}
	for _, path := range []string{"/admission", "/rebalance", "/faults"} {
		if body, code := get(t, srv, path); code != http.StatusNotFound {
			t.Errorf("%s = %d %q, want 404: it was not handed over", path, code, body)
		}
	}
	// /metrics is text whatever the query says; JSON has its own path.
	if body, code := get(t, srv, "/metrics?format=json"); code != http.StatusOK || strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("/metrics?format=json = %d %q, want the plain-text rendering", code, body)
	}
	if body, code := get(t, srv, "/metrics.json"); code != http.StatusOK || !strings.Contains(body, `"unix_nano"`) {
		t.Errorf("/metrics.json with no registry = %d %q, want an empty snapshot", code, body)
	}
	if body, code := get(t, srv, "/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
}
