package cluster

import (
	"strings"
	"testing"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// TestRetwisTracesAssembleAcrossNodes is the end-to-end tracing test: a
// retwis workload runs on a 3-node cluster, one traced create_post fans out
// across all three nodes and assembles into a single critical-path tree
// (what `lambdactl trace` renders), and a traced get_timeline assembles
// with stage attribution. The per-group rollup `lambdactl top` renders is
// cmd/lambdactl's TestTopRollsUpStaticGroups.
func TestRetwisTracesAssembleAcrossNodes(t *testing.T) {
	// Group 0 is n0 (primary) and n2 (backup), group 1 is n1.
	l := startLocal(t, quiet([]int{2, 1}, NodeOptions{
		Tracing: true,
		Store:   &store.Options{SyncWrites: true},
		Runtime: core.Options{CacheEntries: 1024},
	}))
	n0, n2, n1 := l.Slots[0].Node, l.Slots[1].Node, l.Slots[2].Node

	// Retwis workload: user 2 lives in group 0 (replicated to n2), user 3
	// in group 1. User 2 follows 3, so 3's create_post fans out to 2's
	// timeline — a cross-group forward plus intra-group replication.
	c := l.Client
	typ, err := retwis.NewType()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject(retwis.TypeName, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject(retwis.TypeName, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(2, "follow", [][]byte{core.I64Bytes(3)}); err != nil {
		t.Fatalf("follow: %v", err)
	}
	res, postTrace, err := c.InvokeTraced(3, "create_post", [][]byte{[]byte("tail latency is a debt collector")})
	if err != nil {
		t.Fatalf("create_post: %v", err)
	}
	if core.BytesI64(res) != 1 {
		t.Fatalf("create_post deliveries = %d, want 1", core.BytesI64(res))
	}
	tlRes, tlTrace, err := c.InvokeTraced(2, "get_timeline", [][]byte{core.I64Bytes(10)})
	if err != nil {
		t.Fatalf("get_timeline: %v", err)
	}
	if posts, err := retwis.DecodeTimeline(tlRes); err != nil || len(posts) != 1 {
		t.Fatalf("timeline = %v, %v; want the fanned-out post", posts, err)
	}

	collect := func(trace uint64) []telemetry.Span {
		var all []telemetry.Span
		for _, n := range []*Node{n0, n2, n1} {
			all = append(all, fetchTraceSpans(t, c.pool, n.Addr(), trace)...)
		}
		return all
	}

	// The create_post trace must assemble into one tree spanning all three
	// nodes, with the wall time fully attributed to stages.
	post := telemetry.AssembleTrace(postTrace, collect(postTrace))
	for _, addr := range []string{n0.Addr(), n1.Addr(), n2.Addr()} {
		found := false
		for _, n := range post.Nodes {
			if n == addr {
				found = true
			}
		}
		if !found {
			t.Fatalf("assembled trace missing node %s (nodes: %v)", addr, post.Nodes)
		}
	}
	if post.Orphans != 0 {
		t.Errorf("create_post trace has %d orphan span(s)", post.Orphans)
	}
	if post.Stages["vm-exec"] == 0 || post.Stages["rpc-wire"] == 0 {
		t.Errorf("stage attribution incomplete: %v", post.Stages)
	}
	var sum time.Duration
	for _, d := range post.Stages {
		sum += d
	}
	if sum != post.Total {
		t.Errorf("stage sum %v != total %v", sum, post.Total)
	}
	out := post.Render()
	for _, frag := range []string{"critical path:", "vm-exec", "rpc-wire", n2.Addr()} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace render missing %q:\n%s", frag, out)
		}
	}

	// The traced get_timeline renders with its own attribution.
	tl := telemetry.AssembleTrace(tlTrace, collect(tlTrace))
	if tl.Stages["vm-exec"] == 0 {
		t.Errorf("get_timeline trace has no vm-exec attribution: %v", tl.Stages)
	}
	if !strings.Contains(tl.Render(), "critical path:") {
		t.Errorf("get_timeline render has no attribution table:\n%s", tl.Render())
	}

}

// TestRejoinAssemblesAsOneTrace checks that trace context propagates through
// the recovery RPCs: a restarted replica's whole catch-up session — begin,
// digest exchange, chunk fetches, admission — assembles into a single trace
// rooted at the joiner's "rejoin" span, with the donor's handler spans
// parented under the joiner's call spans.
func TestRejoinAssemblesAsOneTrace(t *testing.T) {
	rc := startRejoinCluster(t, NodeOptions{Tracing: true})
	if err := rc.client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, rc.client, 1, 5)

	oldAddr := rc.node(2).Addr()
	rc.kill(2)
	rc.waitEvicted(oldAddr)
	mustAdd(t, rc.client, 1, 7)

	rc.restart(2)
	rc.waitMember(2)
	joiner := rc.node(2)
	if got := readAt(t, rc.pool, joiner.Addr(), 1); got != 12 {
		t.Fatalf("rejoined value = %d, want 12", got)
	}

	// The last rejoin span in the joiner's ring is the successful session.
	var root telemetry.Span
	for _, s := range joiner.tracer.Spans() {
		if s.Name == "rejoin" {
			root = s
		}
	}
	if root.ID == 0 {
		t.Fatal("no rejoin root span recorded on the joiner")
	}
	if root.Parent != 0 {
		t.Fatalf("rejoin span has parent %016x, want a trace root", root.Parent)
	}

	var all []telemetry.Span
	perNode := make(map[int]int)
	for i, n := range rc.Nodes() {
		spans := fetchTraceSpans(t, rc.pool, n.Addr(), root.Trace)
		perNode[i] = len(spans)
		all = append(all, spans...)
	}
	if perNode[2] == 0 || perNode[0]+perNode[1] == 0 {
		t.Fatalf("rejoin trace does not span joiner and donor: per-node span counts %v", perNode)
	}

	a := telemetry.AssembleTrace(root.Trace, all)
	if len(a.Roots) != 1 || a.Roots[0].Span.Name != "rejoin" {
		t.Fatalf("roots = %d (%v), want the single rejoin root", len(a.Roots), a.Roots)
	}
	if a.Orphans != 0 {
		t.Errorf("rejoin trace has %d orphan span(s):\n%s", a.Orphans, a.Render())
	}
	if len(a.Nodes) < 2 {
		t.Fatalf("rejoin trace covers nodes %v, want joiner and donor", a.Nodes)
	}
	names := make(map[string]bool)
	for _, s := range all {
		names[s.Name] = true
	}
	for _, want := range []string{"recovery.begin", "recovery.digest", "recovery.fetch", "recovery.admit"} {
		if !names[want] {
			t.Errorf("rejoin trace missing %q spans (have %v)", want, names)
		}
	}
	// The session's phases are attributed on the critical path.
	if !strings.Contains(a.Render(), "critical path:") {
		t.Errorf("rejoin render has no attribution:\n%s", a.Render())
	}
}
