// Package debug serves a node's observability surface over HTTP: /metrics
// (plain-text counters, gauges and histogram summaries), /traces (recorded
// spans as JSON, filterable by trace ID and minimum duration), /healthz,
// the standard net/http/pprof profiling endpoints, and — when enabled —
// /faults, the runtime control surface for the deterministic
// fault-injection plane (internal/fault).
//
// The server is strictly opt-in (NodeOptions.DebugAddr / the -debug flag).
// Every endpoint except /faults is read-only: it exposes state, never
// mutates it. /faults POST arms and disarms injection rules, which is why
// it additionally requires Options.Faults. The server binds its own mux,
// so nothing leaks onto http.DefaultServeMux.
package debug

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/telemetry"
)

// Options selects what the debug server exposes. All fields are optional.
type Options struct {
	// Registry supplies /metrics counters, gauges and histograms.
	Registry *telemetry.Registry
	// Tracer supplies /traces spans.
	Tracer *telemetry.Tracer
	// Gauges, if set, contributes extra point-in-time values to /metrics
	// (e.g. block-cache hit counts read from the store on demand).
	Gauges func() map[string]uint64
	// Health, if set, backs /healthz; a non-nil error reports 503.
	Health func() error
	// Faults exposes the process fault-injection plane at /faults: GET
	// renders the armed rules as a command script (re-POSTable as-is),
	// POST applies a script in the internal/fault grammar. The plane is
	// process-global, so on a node with Faults enabled this endpoint is
	// the live-cluster counterpart of the chaos harness.
	Faults bool
	// Recovery, if set, backs /recovery: the node's anti-entropy rejoin
	// state machine and active donor sessions, as JSON.
	Recovery func() any
	// Cluster, if set, backs /cluster/metrics: the coordinator's merged
	// per-group and cluster-wide metric rollups, as JSON.
	Cluster func() any
	// Rebalance, if set, backs /rebalance: the load-aware rebalancer's
	// status (last observation window, recent decisions, move counters),
	// as JSON.
	Rebalance func() any
	// Admission, if set, backs /admission: the node's admission-plane
	// status (queue depth, shed counters), as JSON.
	Admission func() any
	// Window is the sliding-window length for /metrics.json windowed
	// values; zero selects telemetry.DefaultWindow.
	Window time.Duration
}

// Server is a running debug HTTP endpoint.
type Server struct {
	ln   net.Listener
	http *http.Server
}

// Start listens on addr ("host:port", empty port for ephemeral) and serves
// the debug endpoints until Close.
func Start(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug: listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			serveMetricsJSON(w, o)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, RenderMetrics(o.Registry, o.Gauges))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) { serveMetricsJSON(w, o) })
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) { serveTraces(w, r, o.Tracer) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if o.Health != nil {
			if err := o.Health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	if o.Faults {
		mux.HandleFunc("/faults", serveFaults)
	}
	if o.Recovery != nil {
		mux.HandleFunc("/recovery", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(o.Recovery())
		})
	}
	if o.Cluster != nil {
		mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(o.Cluster())
		})
	}
	if o.Rebalance != nil {
		mux.HandleFunc("/rebalance", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(o.Rebalance())
		})
	}
	if o.Admission != nil {
		mux.HandleFunc("/admission", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(o.Admission())
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, http: &http.Server{Handler: mux}}
	go s.http.Serve(ln)
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.http.Close() }

// RenderMetrics renders every instrument as "name value" lines; histograms
// expand into _count/_mean_us/_p50_us/_p99_us/_max_us summaries. gauges, if
// set, contributes point-in-time values the registry does not hold. It is
// the text /metrics serves and a node's stats RPC answers with.
func RenderMetrics(reg *telemetry.Registry, gauges func() map[string]uint64) string {
	var b strings.Builder
	if reg != nil {
		for _, name := range reg.CounterNames() {
			fmt.Fprintf(&b, "%s %d\n", name, reg.Counter(name).Value())
		}
		for _, name := range reg.GaugeNames() {
			fmt.Fprintf(&b, "%s %d\n", name, reg.Gauge(name).Value())
		}
		for _, name := range reg.HistogramNames() {
			s := reg.Histogram(name).Snapshot()
			fmt.Fprintf(&b, "%s_count %d\n", name, s.Count)
			fmt.Fprintf(&b, "%s_mean_us %d\n", name, s.Mean.Microseconds())
			fmt.Fprintf(&b, "%s_p50_us %d\n", name, s.Median.Microseconds())
			fmt.Fprintf(&b, "%s_p99_us %d\n", name, s.P99.Microseconds())
			fmt.Fprintf(&b, "%s_max_us %d\n", name, s.Max.Microseconds())
		}
	}
	if gauges != nil {
		extra := gauges()
		names := make([]string, 0, len(extra))
		for n := range extra {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "%s %d\n", n, extra[n])
		}
	}
	return b.String()
}

// serveMetricsJSON renders the registry as a telemetry.RegistrySnapshot:
// every histogram cumulative and windowed (with quantiles, sparse buckets
// and trace exemplars), every counter with its windowed rate, every gauge.
// Extra gauges from Options.Gauges are folded into the counter section so
// they get windowed rates too. This is the form the coordinator scrapes and
// merges.
func serveMetricsJSON(w http.ResponseWriter, o Options) {
	w.Header().Set("Content-Type", "application/json")
	if o.Registry == nil {
		json.NewEncoder(w).Encode(telemetry.RegistrySnapshot{})
		return
	}
	var extra map[string]uint64
	if o.Gauges != nil {
		extra = o.Gauges()
	}
	json.NewEncoder(w).Encode(o.Registry.Snapshot(o.Window, extra))
}

// serveFaults is the fault plane's HTTP surface: GET describes, POST
// applies. Errors echo the offending grammar line so a mistyped rule in a
// curl one-liner is diagnosable from the 400 body alone.
func serveFaults(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, "":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, fault.Describe())
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := fault.ApplyAll(string(body)); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintln(w, "ok")
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

// tracesResponse is the /traces JSON envelope.
type tracesResponse struct {
	Node  string           `json:"node,omitempty"`
	Total uint64           `json:"total_recorded"`
	Spans []telemetry.Span `json:"spans"`
}

// ParseTraceID parses a trace ID as given on the command line or in a
// query string: hexadecimal (the form trace IDs are logged in, with or
// without a 0x prefix), falling back to decimal.
func ParseTraceID(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	if id, err := strconv.ParseUint(s, 16, 64); err == nil {
		return id, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// serveTraces renders retained spans as JSON. Query parameters: trace
// (hex or decimal trace ID) keeps one trace; min (a time.Duration such as
// 10ms) drops spans shorter than it.
func serveTraces(w http.ResponseWriter, r *http.Request, tracer *telemetry.Tracer) {
	w.Header().Set("Content-Type", "application/json")
	resp := tracesResponse{Spans: []telemetry.Span{}}
	if tracer == nil {
		json.NewEncoder(w).Encode(resp)
		return
	}
	resp.Total = tracer.Total()
	var spans []telemetry.Span
	if tq := r.URL.Query().Get("trace"); tq != "" {
		id, err := ParseTraceID(tq)
		if err != nil {
			http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
			return
		}
		spans = tracer.TraceSpans(id)
	} else {
		spans = tracer.Spans()
	}
	if mq := r.URL.Query().Get("min"); mq != "" {
		min, err := time.ParseDuration(mq)
		if err != nil {
			http.Error(w, "bad min duration: "+err.Error(), http.StatusBadRequest)
			return
		}
		kept := spans[:0]
		for _, s := range spans {
			if s.Dur >= min {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	if len(spans) > 0 {
		resp.Node = spans[len(spans)-1].Node
		resp.Spans = spans
	}
	json.NewEncoder(w).Encode(resp)
}
