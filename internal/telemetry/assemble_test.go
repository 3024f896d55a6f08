package telemetry

import (
	"strings"
	"testing"
	"time"
)

// mkSpan builds a span with millisecond-offset start and duration for
// readable test fixtures.
func mkSpan(trace, id, parent uint64, name, node string, startMs, durMs int64) Span {
	return Span{
		Trace:  trace,
		ID:     id,
		Parent: parent,
		Name:   name,
		Node:   node,
		Start:  startMs * int64(time.Millisecond),
		Dur:    time.Duration(durMs) * time.Millisecond,
	}
}

// TestAssembleCrossNodeAttribution stitches a hand-built three-node trace
// (root invoke -> rpc to a remote invoke, plus wal/vm work) and checks the
// tree shape, node list, and exact per-stage attribution.
func TestAssembleCrossNodeAttribution(t *testing.T) {
	const tr = 0x42
	spans := []Span{
		// n0: root invoke 0..100ms, rpc hop 10..90ms nested inside it.
		mkSpan(tr, 1, 0, "invoke", "n0", 0, 100),
		mkSpan(tr, 2, 1, "rpc", "n0", 10, 80),
		// n1: the forwarded invoke 20..80ms, with fsync and vm work inside.
		mkSpan(tr, 3, 2, "invoke", "n1", 20, 60),
		mkSpan(tr, 4, 3, "wal-sync", "n1", 30, 20),
		mkSpan(tr, 5, 3, "vm-exec", "n1", 50, 20),
	}
	// Shuffle across "scrapes": assembly must not depend on input order.
	spans = []Span{spans[4], spans[1], spans[0], spans[3], spans[2]}

	a := AssembleTrace(tr, spans)
	if len(a.Roots) != 1 || a.Roots[0].Span.ID != 1 {
		t.Fatalf("roots = %+v, want the single root invoke", a.Roots)
	}
	if a.Orphans != 0 {
		t.Fatalf("orphans = %d", a.Orphans)
	}
	if got := strings.Join(a.Nodes, ","); got != "n0,n1" {
		t.Fatalf("nodes = %q", got)
	}
	if a.Total != 100*time.Millisecond {
		t.Fatalf("total = %v", a.Total)
	}
	for id := uint64(1); id <= 5; id++ {
		if !a.Critical[id] {
			t.Errorf("span %d not on critical path", id)
		}
	}

	// Attribution: root self = 100-80 = 20ms (dispatch), rpc self =
	// 80-60 = 20ms (rpc-wire), remote invoke self = 60-40 = 20ms
	// (dispatch again), wal-sync 20ms, vm-exec 20ms.
	want := map[string]time.Duration{
		"dispatch":  40 * time.Millisecond,
		"rpc-wire":  20 * time.Millisecond,
		"wal-fsync": 20 * time.Millisecond,
		"vm-exec":   20 * time.Millisecond,
	}
	for stage, d := range want {
		if a.Stages[stage] != d {
			t.Errorf("stage %s = %v, want %v (all: %v)", stage, a.Stages[stage], d, a.Stages)
		}
	}
	var sum time.Duration
	for _, d := range a.Stages {
		sum += d
	}
	if sum != a.Total {
		t.Errorf("stage sum %v != total %v", sum, a.Total)
	}

	out := a.Render()
	for _, frag := range []string{"trace 0000000000000042", "invoke", "wal-sync", "critical path:", "rpc-wire", "n1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

// TestAssembleContainedSiblings checks that a sibling whose interval falls
// inside another child's span is handed down and charged as nested work —
// replicate issued from inside vm-exec carves its time out of vm-exec's —
// and that wall time is never double-counted.
func TestAssembleContainedSiblings(t *testing.T) {
	const tr = 7
	spans := []Span{
		mkSpan(tr, 1, 0, "invoke", "n0", 0, 100),
		mkSpan(tr, 2, 1, "vm-exec", "n0", 0, 100),   // covers everything
		mkSpan(tr, 3, 1, "replicate", "n0", 20, 60), // inside vm-exec's time
		mkSpan(tr, 4, 3, "repl.applyBatch", "n2", 30, 20),
	}
	a := AssembleTrace(tr, spans)
	var sum time.Duration
	for _, d := range a.Stages {
		sum += d
	}
	// Wall time never double-counts: the total attributed equals the root
	// duration even though 180ms of child spans overlap inside it.
	if sum != 100*time.Millisecond {
		t.Fatalf("stage sum = %v, want 100ms (stages: %v)", sum, a.Stages)
	}
	// The most specific span covering each instant wins: replicate claims
	// [20,90] minus nothing of its own child's backup apply — together the
	// replicate subtree gets its full 60ms charged as repl-ship, and
	// vm-exec keeps only the time it actually spent executing.
	if a.Stages["repl-ship"] != 60*time.Millisecond {
		t.Errorf("repl-ship = %v, want 60ms (stages: %v)", a.Stages["repl-ship"], a.Stages)
	}
	if a.Stages["vm-exec"] != 40*time.Millisecond {
		t.Errorf("vm-exec = %v, want 40ms (stages: %v)", a.Stages["vm-exec"], a.Stages)
	}
	for id := uint64(1); id <= 4; id++ {
		if !a.Critical[id] {
			t.Errorf("span %d not on critical path", id)
		}
	}
	if out := a.Render(); !strings.Contains(out, "replicate") || !strings.Contains(out, "repl.applyBatch") {
		t.Errorf("replicate subtree missing from render:\n%s", out)
	}
}

// TestAssembleOrphansAndFilter checks orphan promotion and that spans from
// other traces are excluded.
func TestAssembleOrphansAndFilter(t *testing.T) {
	spans := []Span{
		mkSpan(5, 1, 0, "invoke", "n0", 0, 10),
		mkSpan(5, 2, 99, "repl.applyBatch", "n2", 2, 3), // parent never scraped
		mkSpan(6, 3, 0, "invoke", "n1", 0, 10),          // different trace
	}
	a := AssembleTrace(5, spans)
	if len(a.Roots) != 2 {
		t.Fatalf("roots = %d, want 2 (orphan promoted)", len(a.Roots))
	}
	if a.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", a.Orphans)
	}
	if a.spanCount() != 2 {
		t.Fatalf("span count = %d, want 2 (trace 6 must be filtered)", a.spanCount())
	}
	if !strings.Contains(a.Render(), "orphan") {
		t.Error("render does not flag the orphan")
	}
}
