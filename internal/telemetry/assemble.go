// Cross-node trace assembly. Each node retains only its own spans; this file
// stitches the spans fetched from every node of a cluster back into one tree,
// walks the critical path, and attributes the root's wall time to pipeline
// stages (rpc-wire, wal-fsync, repl-ship, vm-exec, cache-hit, ...). The
// rendering is shared by `lambdactl trace` and the integration tests.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TraceNode is one span with its resolved children.
type TraceNode struct {
	Span     Span
	Children []*TraceNode
}

// end returns the span's finish time in unix nanoseconds.
func (n *TraceNode) end() int64 { return n.Span.Start + int64(n.Span.Dur) }

// AssembledTrace is the cluster-wide view of one trace.
type AssembledTrace struct {
	Trace uint64
	// Roots are the top-level spans (parent missing or zero), ordered by
	// start time. A client-rooted invocation has one root per hop the
	// client issued.
	Roots []*TraceNode
	// Stages attributes critical-path wall time to named stages. The sum
	// over stages equals Total exactly: every instant of each root's
	// duration is charged to exactly one stage.
	Stages map[string]time.Duration
	// Critical marks the span IDs on the critical path.
	Critical map[uint64]bool
	// Total is the summed duration of the root spans.
	Total time.Duration
	// Orphans counts spans whose parent was never found (promoted to
	// roots) — usually a sign a node's ring buffer rotated or a node was
	// not scraped.
	Orphans int
	// Nodes lists the distinct node labels that contributed spans.
	Nodes []string
}

// stageOf maps a span name to the pipeline stage its self-time is charged
// to. Self-time of an "rpc" span is wire + queueing (the remote work nests
// under it as a child), hence rpc-wire.
func stageOf(name string) string {
	switch name {
	case "rpc":
		return "rpc-wire"
	case "wal-sync":
		return "wal-fsync"
	case "replicate", "repl.applyBatch":
		return "repl-ship"
	case "vm-exec", "tx":
		return "vm-exec"
	case "cache-hit":
		return "cache-hit"
	case "invoke":
		return "dispatch"
	default:
		return name
	}
}

// AssembleTrace stitches spans (from any number of nodes, in any order) into
// trees and computes critical-path stage attribution. Spans not matching
// trace are ignored; trace 0 assembles whatever single trace the spans
// belong to (first one seen).
func AssembleTrace(trace uint64, spans []Span) *AssembledTrace {
	a := &AssembledTrace{
		Trace:    trace,
		Stages:   make(map[string]time.Duration),
		Critical: make(map[uint64]bool),
	}
	nodes := make(map[uint64]*TraceNode)
	nodeLabels := make(map[string]bool)
	for _, s := range spans {
		if a.Trace == 0 {
			a.Trace = s.Trace
		}
		if s.Trace != a.Trace || s.ID == 0 {
			continue
		}
		if _, dup := nodes[s.ID]; dup {
			continue
		}
		nodes[s.ID] = &TraceNode{Span: s}
		if s.Node != "" {
			nodeLabels[s.Node] = true
		}
	}
	for _, n := range nodes {
		if p, ok := nodes[n.Span.Parent]; ok && n.Span.Parent != n.Span.ID {
			p.Children = append(p.Children, n)
			continue
		}
		if n.Span.Parent != 0 {
			a.Orphans++
		}
		a.Roots = append(a.Roots, n)
	}
	sortByStart := func(ns []*TraceNode) {
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].Span.Start != ns[j].Span.Start {
				return ns[i].Span.Start < ns[j].Span.Start
			}
			return ns[i].Span.ID < ns[j].Span.ID
		})
	}
	sortByStart(a.Roots)
	for _, n := range nodes {
		sortByStart(n.Children)
	}
	for _, r := range a.Roots {
		a.Total += r.Span.Dur
		a.attribute(r, r.Span.Start, r.end(), nil)
	}
	for l := range nodeLabels {
		a.Nodes = append(a.Nodes, l)
	}
	sort.Strings(a.Nodes)
	return a
}

// attribute charges n's share of the uncovered interval [lo, hi] to stages:
// every instant is charged to the most specific span covering it, walking
// back from the interval's end and preferring the latest-ending candidate at
// each cursor position (the critical path through serial execution). extra
// carries sibling spans whose intervals fall inside a candidate's claim —
// e.g. an rpc hop issued from inside vm-exec is recorded as the invoke's
// child but runs during vm-exec, so it is handed down to compete for
// vm-exec's time rather than being shadowed. A span left entirely inside
// time claimed by another candidate at every level ran in parallel off the
// critical path — speeding it up would not shorten the trace — so it is
// neither charged nor marked critical. All intervals are clamped, which
// makes the stage totals sum exactly to the root durations.
func (a *AssembledTrace) attribute(n *TraceNode, lo, hi int64, extra []*TraceNode) {
	if lo < n.Span.Start {
		lo = n.Span.Start
	}
	if hi > n.end() {
		hi = n.end()
	}
	if lo >= hi {
		return
	}
	a.Critical[n.Span.ID] = true
	kids := make([]*TraceNode, 0, len(n.Children)+len(extra))
	kids = append(kids, n.Children...)
	kids = append(kids, extra...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].end() > kids[j].end() })
	cursor := hi
	var covered time.Duration
	for i, c := range kids {
		cEnd := c.end()
		cStart := c.Span.Start
		if cEnd > cursor {
			cEnd = cursor
		}
		if cStart < lo {
			cStart = lo
		}
		if cStart >= cEnd {
			continue
		}
		// Later candidates contained in this claim compete inside it.
		var handDown []*TraceNode
		for _, o := range kids[i+1:] {
			if o.Span.Start < cEnd && o.end() > cStart {
				handDown = append(handDown, o)
			}
		}
		a.attribute(c, cStart, cEnd, handDown)
		covered += time.Duration(cEnd - cStart)
		cursor = cStart
	}
	self := time.Duration(hi-lo) - covered
	if self < 0 {
		self = 0
	}
	a.Stages[stageOf(n.Span.Name)] += self
}

// StageRows returns the stage attribution sorted by descending time.
func (a *AssembledTrace) StageRows() []StageRow {
	rows := make([]StageRow, 0, len(a.Stages))
	for name, d := range a.Stages {
		rows = append(rows, StageRow{Stage: name, Time: d})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Time != rows[j].Time {
			return rows[i].Time > rows[j].Time
		}
		return rows[i].Stage < rows[j].Stage
	})
	return rows
}

// StageRow is one line of the critical-path attribution table.
type StageRow struct {
	Stage string
	Time  time.Duration
}

// Render formats the assembled trace: the span tree (critical-path spans
// marked with *) followed by the per-stage attribution table.
func (a *AssembledTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %016x  spans=%d nodes=%s total=%v\n",
		a.Trace, a.spanCount(), strings.Join(a.Nodes, ","), a.Total)
	if a.Orphans > 0 {
		fmt.Fprintf(&b, "  (%d orphan span(s): parent missing — ring rotated or a node was not scraped)\n", a.Orphans)
	}
	var walk func(n *TraceNode, depth int)
	walk = func(n *TraceNode, depth int) {
		mark := " "
		if a.Critical[n.Span.ID] {
			mark = "*"
		}
		errStr := ""
		if n.Span.Err != "" {
			errStr = " err=" + n.Span.Err
		}
		fmt.Fprintf(&b, "%s %s%-*s %-14s %v%s\n",
			mark, strings.Repeat("  ", depth), 24-2*depth, n.Span.Name, n.Span.Node, n.Span.Dur, errStr)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range a.Roots {
		walk(r, 0)
	}
	if len(a.Stages) > 0 {
		b.WriteString("critical path:\n")
		total := a.Total
		for _, row := range a.StageRows() {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(row.Time) / float64(total)
			}
			fmt.Fprintf(&b, "  %-12s %10v  %5.1f%%\n", row.Stage, row.Time, pct)
		}
	}
	return b.String()
}

func (a *AssembledTrace) spanCount() int {
	var count func(n *TraceNode) int
	count = func(n *TraceNode) int {
		c := 1
		for _, ch := range n.Children {
			c += count(ch)
		}
		return c
	}
	total := 0
	for _, r := range a.Roots {
		total += count(r)
	}
	return total
}
