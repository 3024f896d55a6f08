// Package debug serves a node's observability surface over HTTP: /metrics
// and /metrics.json (the registry's one snapshot, as text and as JSON),
// /traces (recorded spans as JSON, filterable by trace ID and minimum
// duration), /healthz, the standard net/http/pprof profiling endpoints,
// whatever status documents the owner hands over in Options.JSON, and —
// when enabled — /faults, the runtime control surface for the deterministic
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
	"strconv"
	"strings"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/telemetry"
)

// Options selects what the debug server exposes. All fields are optional.
type Options struct {
	// Registry supplies /metrics and /metrics.json.
	Registry *telemetry.Registry
	// Tracer supplies /traces spans.
	Tracer *telemetry.Tracer
	// Health, if set, backs /healthz; a non-nil error reports 503.
	Health func() error
	// Faults exposes the process fault-injection plane at /faults: GET
	// renders the armed rules as a command script (re-POSTable as-is),
	// POST applies a script in the internal/fault grammar. The plane is
	// process-global, so on a node with Faults enabled this endpoint is
	// the live-cluster counterpart of the chaos harness.
	Faults bool
	// JSON maps a path ("/recovery", "/admission", "/cluster/metrics",
	// "/rebalance") to the status document served there, encoded as JSON
	// on every request.
	JSON map[string]func() any
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
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, RenderMetrics(o.Registry.Snapshot()))
	})
	serveJSON := func(path string, doc func() any) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(doc())
		})
	}
	serveJSON("/metrics.json", func() any { return o.Registry.Snapshot() })
	for path, doc := range o.JSON {
		serveJSON(path, doc)
	}
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

// RenderMetrics renders a snapshot as "name value" lines — counters, then
// gauges, then histograms, each sorted by name. A histogram expands into
// _count/_mean/_p50/_p99/_max summaries whose names carry the histogram's
// unit ("_us" for latencies, nothing for plain magnitudes). It is the text
// /metrics serves; everything in it is in /metrics.json too.
func RenderMetrics(s telemetry.RegistrySnapshot) string {
	var b strings.Builder
	for _, name := range telemetry.SortedNames(s.Counters) {
		fmt.Fprintf(&b, "%s %d\n", name, s.Counters[name])
	}
	for _, name := range telemetry.SortedNames(s.Gauges) {
		fmt.Fprintf(&b, "%s %d\n", name, s.Gauges[name])
	}
	for _, name := range telemetry.SortedNames(s.Histograms) {
		h := s.Histograms[name]
		unit := "_us"
		if h.Unit == telemetry.UnitCount {
			unit = ""
		}
		var mean uint64
		if h.Count > 0 {
			mean = h.SumUs / h.Count
		}
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count)
		fmt.Fprintf(&b, "%s_mean%s %d\n", name, unit, mean)
		fmt.Fprintf(&b, "%s_p50%s %d\n", name, unit, h.P50Us)
		fmt.Fprintf(&b, "%s_p99%s %d\n", name, unit, h.P99Us)
		fmt.Fprintf(&b, "%s_max%s %d\n", name, unit, h.MaxUs)
	}
	return b.String()
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
