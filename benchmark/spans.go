package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public functions. Spans of one request share Req; Cause
// is the ID of the span that led to this one (0 for a request's root).
type span struct {
	ID    int    `json:"id"`
	Req   int    `json:"req"`
	Cause int    `json:"cause"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the traced replay began
	End   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. One goroutine writes
// it: the traced replay is single-client by construction.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, req, cause int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Req: req, Cause: cause, Name: name, Start: int64(time.Since(l.t0))})
	return id
}

func (l *spanLog) end(id int) { l.spans[id-1].End = int64(time.Since(l.t0)) }

// medianUs is the median duration of the spans called name, in µs.
func (l *spanLog) medianUs(name string) float64 {
	var ds []float64
	for i := range l.spans {
		if l.spans[i].Name == name {
			ds = append(ds, float64(l.spans[i].End-l.spans[i].Start)/1e3)
		}
	}
	return median(ds)
}

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string  `json:"workload"`
	Env      envInfo `json:"env"`
	Spans    []span  `json:"spans"`
}

func (l *spanLog) write(path, workload string, env envInfo) error {
	data, err := json.Marshal(traceFile{Workload: workload, Env: env, Spans: l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
