// Package debug is a process's operator surface. Register installs the
// operator's reads and controls on the process's RPC port, beside its data
// plane: node.stats (the registry's one snapshot), node.traces (recorded
// spans, filtered by trace ID and minimum duration) and node.faults (the
// runtime control surface of the deterministic fault-injection plane,
// internal/fault). Start serves the two things that stay on HTTP because
// standard tools read them there: the snapshot as Prometheus-style
// /metrics text and the net/http/pprof profiles.
//
// The RPC port is unauthenticated and already accepts type.register,
// obj.delete and node.migrate, so node.faults adds no privilege the port
// lacks. The HTTP server is opt-in (each daemon's -debug flag), read-only,
// and binds its own mux, so nothing leaks onto http.DefaultServeMux.
package debug

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/rpc"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// The operator's RPC methods, answered by every daemon.
const (
	// MethodStats answers with the registry's snapshot as JSON (a
	// telemetry.RegistrySnapshot).
	MethodStats = "node.stats"
	// MethodTraces takes a TracesQuery and answers with the matching
	// retained spans as a JSON array.
	MethodTraces = "node.traces"
	// MethodFaults applies a fault-grammar script, if the body holds one,
	// and answers with the plane's state as a script (fault.Describe).
	MethodFaults = "node.faults"
)

// maxFaultScript bounds a node.faults script.
const maxFaultScript = 1 << 20

// Register installs the operator methods on srv, reading reg and tracer
// (either may be nil: a process without one answers with nothing).
func Register(srv *rpc.Server, reg *telemetry.Registry, tracer *telemetry.Tracer) {
	srv.Handle(MethodStats, func([]byte) ([]byte, error) {
		// The snapshot is taken inside this call, which the server counts
		// in flight: that is the sampler's load, not the process's.
		snap := reg.Snapshot()
		if _, ok := snap.Gauges["rpc.server.in_flight"]; ok {
			snap.Gauges["rpc.server.in_flight"]--
		}
		return json.Marshal(snap)
	})
	srv.Handle(MethodTraces, func(body []byte) ([]byte, error) {
		q, err := decodeTracesQuery(body)
		if err != nil {
			return nil, err
		}
		spans := tracer.Spans()
		if q.Trace != 0 {
			spans = tracer.TraceSpans(q.Trace)
		}
		return json.Marshal(slices.DeleteFunc(spans, func(s telemetry.Span) bool { return s.Dur < q.Min }))
	})
	// The plane is process-global, so this one method controls every site
	// in the process: it is the live-cluster counterpart of the chaos
	// harness. A script is applied all or nothing, and a bad line is
	// refused with the grammar's message.
	srv.Handle(MethodFaults, func(body []byte) ([]byte, error) {
		if len(body) > maxFaultScript {
			return nil, fmt.Errorf("debug: fault script of %d bytes exceeds %d", len(body), maxFaultScript)
		}
		if err := fault.ApplyAll(string(body)); err != nil {
			return nil, err
		}
		return []byte(fault.Describe()), nil
	})
}

// TracesQuery is a node.traces request: the spans of one trace (every
// retained span for Trace 0) at least Min long.
type TracesQuery struct {
	Trace uint64
	Min   time.Duration
}

// Encode returns the request body.
func (q TracesQuery) Encode() []byte {
	return wire.AppendUvarint(wire.AppendUvarint(nil, q.Trace), uint64(q.Min))
}

func decodeTracesQuery(body []byte) (TracesQuery, error) {
	r := wire.NewReader(body)
	q := TracesQuery{Trace: r.Uvarint(), Min: time.Duration(r.Uvarint())}
	return q, r.ErrIn("debug: traces query")
}

// Server is a running debug HTTP endpoint.
type Server struct {
	ln   net.Listener
	http *http.Server
}

// Start listens on addr ("host:port", empty port for ephemeral) and serves
// reg's /metrics text and the pprof profiles until Close.
func Start(addr string, reg *telemetry.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug: listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, RenderMetrics(reg.Snapshot()))
	})
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
// /metrics serves; everything in it is in node.stats too.
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
