package debug

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/rpc"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire/wiretest"
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

// serveOperator registers the operator methods on a server of their own
// and returns a pool and the address to call them at.
func serveOperator(t *testing.T, reg *telemetry.Registry, tracer *telemetry.Tracer) (*rpc.Pool, string) {
	t.Helper()
	srv := rpc.NewServer()
	srv.SetTelemetry(reg)
	Register(srv, reg, tracer)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := rpc.NewPool(nil)
	t.Cleanup(func() { pool.Close(); srv.Close() })
	return pool, addr
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

// TestMetricsTextAndJSONAgree pins the one-surface property at its two
// exits: /metrics is a rendering of the very snapshot node.stats answers
// with as JSON, so the two list the same instruments — plain and sampled
// gauges included — with the same values, and a histogram's unit decides its
// text suffix.
func TestMetricsTextAndJSONAgree(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("core.commits").Add(7)
	reg.Gauge("lease.held").Inc()
	reg.GaugeFunc("core.pool_idle", func() int64 { return 5 })
	reg.Histogram("core.invoke").Record(300 * time.Microsecond)
	reg.CountHistogram("repl.batch_size").Observe(4)
	pool, addr := serveOperator(t, reg, nil)
	srv, err := Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	text, _ := get(t, srv, "/metrics")
	body, err := pool.Call(addr, MethodStats, nil)
	if err != nil {
		t.Fatalf("node.stats: %v", err)
	}
	var snap telemetry.RegistrySnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("node.stats: %v\n%s", err, body)
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
	// The server's own instruments (rpc.server.*) are in both: one registry.
	inText := textNames(text)
	for n := range inJSON {
		if !inText[n] {
			t.Errorf("%s is in node.stats but not in /metrics:\n%s", n, text)
		}
	}
	for n := range inText {
		if !inJSON[n] {
			t.Errorf("%s is in /metrics but not in node.stats", n)
		}
	}
	// Exactly the five registered instruments and the server's own.
	want := []string{"core.commits", "lease.held", "core.pool_idle", "core.invoke", "repl.batch_size",
		"rpc.server.requests", "rpc.server.in_flight", "rpc.server.rx_bytes", "rpc.server.tx_bytes",
		"rpc.server.handle", "rpc.frames_coalesced"}
	for _, n := range want {
		if !inJSON[n] {
			t.Errorf("node.stats lacks %s: %v", n, inJSON)
		}
	}
	if len(inJSON) != len(want) {
		t.Errorf("node.stats lists %d instruments, want the %d registered: %v", len(inJSON), len(want), inJSON)
	}
	for _, line := range []string{
		"core.commits 7\n", "lease.held 1\n", "core.pool_idle 5\n",
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
	// node.stats leaves its own call out of the in-flight gauge.
	if in := snap.Gauges["rpc.server.in_flight"]; in != 0 {
		t.Errorf("node.stats reads %d requests in flight on an idle server, want 0", in)
	}
	// The text is a rendering of the snapshot and of nothing else.
	if !strings.Contains(RenderMetrics(snap), "core.commits 7\n") {
		t.Errorf("RenderMetrics of the decoded snapshot lost a counter:\n%s", RenderMetrics(snap))
	}
}

// TestHTTPServesMetricsAndPprofOnly: the HTTP side is /metrics text (a
// server with no registry still answers) and the pprof profiles; every
// operator read and control is on the RPC port.
func TestHTTPServesMetricsAndPprofOnly(t *testing.T) {
	srv, err := Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if body, code := get(t, srv, "/metrics?format=json"); code != http.StatusOK || body != "" {
		t.Errorf("/metrics with no registry = %d %q, want an empty text rendering", code, body)
	}
	if _, code := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	for _, path := range []string{"/metrics.json", "/traces", "/faults", "/recovery", "/healthz"} {
		if body, code := get(t, srv, path); code != http.StatusNotFound {
			t.Errorf("%s = %d %q, want 404: it is served over RPC", path, code, body)
		}
	}
}

// TestTracesQuery: node.traces keeps one trace's spans, or every retained
// span, at least the query's minimum long, and refuses a truncated query.
func TestTracesQuery(t *testing.T) {
	tracer := telemetry.NewTracer("n0", 64)
	tracer.SetEnabled(true)
	var traces [2]uint64
	for i := range traces {
		root := tracer.StartSpan(telemetry.SpanContext{}, "invoke")
		slow := tracer.StartSpan(root.Context(), "vm-exec")
		time.Sleep(2 * time.Millisecond)
		slow.Finish()
		root.Finish()
		traces[i] = root.Context().Trace
	}
	pool, addr := serveOperator(t, nil, tracer)
	query := func(q TracesQuery) []telemetry.Span {
		t.Helper()
		body, err := pool.Call(addr, MethodTraces, q.Encode())
		if err != nil {
			t.Fatalf("node.traces %+v: %v", q, err)
		}
		var spans []telemetry.Span
		if err := json.Unmarshal(body, &spans); err != nil {
			t.Fatalf("node.traces %+v: %v\n%s", q, err, body)
		}
		return spans
	}
	if spans := query(TracesQuery{}); len(spans) != 4 {
		t.Errorf("every span: got %d, want 4", len(spans))
	}
	spans := query(TracesQuery{Trace: traces[1]})
	if len(spans) != 2 || spans[0].Trace != traces[1] || spans[1].Trace != traces[1] {
		t.Errorf("trace %016x: got %+v, want its 2 spans", traces[1], spans)
	}
	for _, s := range query(TracesQuery{Min: 2 * time.Millisecond}) {
		if s.Dur < 2*time.Millisecond {
			t.Errorf("span %q of %v kept under a 2ms minimum", s.Name, s.Dur)
		}
	}
	if spans := query(TracesQuery{Trace: traces[0], Min: time.Hour}); len(spans) != 0 {
		t.Errorf("an hour's minimum kept %d spans", len(spans))
	}
	if _, err := pool.Call(addr, MethodTraces, TracesQuery{Trace: 1 << 40}.Encode()[:3]); err == nil {
		t.Error("a truncated query was answered")
	}
}

// TestFaultsMethod: an empty body describes the plane, a script applies it,
// and a bad rule or an oversized script is refused with the plane unchanged.
func TestFaultsMethod(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	pool, addr := serveOperator(t, nil, nil)
	if _, err := pool.Call(addr, MethodFaults, []byte("rule obj.invoke drop\nrule obj.invoke explode")); err == nil || !strings.Contains(err.Error(), "explode") {
		t.Fatalf("bad rule: err = %v, want the grammar's message", err)
	}
	big := []byte(strings.Repeat("# padding\n", maxFaultScript/10) + "rule obj.invoke drop\n")
	if _, err := pool.Call(addr, MethodFaults, big); err == nil {
		t.Fatalf("a %d-byte script was accepted", len(big))
	}
	if rules := fault.Rules(); len(rules) != 0 {
		t.Fatalf("refused scripts armed %+v", rules)
	}
	desc, err := pool.Call(addr, MethodFaults, []byte("rule obj.invoke@127.0.0.1:9 drop"))
	if err != nil || !strings.Contains(string(desc), "rule obj.invoke@127.0.0.1:9 drop\n") {
		t.Fatalf("apply: %q, %v", desc, err)
	}
	if again, err := pool.Call(addr, MethodFaults, nil); err != nil || string(again) != string(desc) {
		t.Fatalf("describe: %q, %v; want %q", again, err, desc)
	}
}

// FuzzTracesQuery holds the node.traces request decoder to the wiretest
// properties.
func FuzzTracesQuery(f *testing.F) {
	wiretest.Fuzz(f, wiretest.Of("tracesQuery", TracesQuery{Trace: 0x1f3a9c01d3b77e12, Min: 10 * time.Millisecond},
		TracesQuery.Encode, decodeTracesQuery))
}
