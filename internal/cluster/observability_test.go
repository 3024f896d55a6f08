package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/debug"
	"lambdastore/internal/rpc"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/vm"
)

// fetchMetrics GETs a debug server's /metrics text and parses its
// "name value" lines.
func fetchMetrics(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out
}

// operatorCall calls one of a node's operator methods and decodes its JSON
// answer into v.
func operatorCall(t *testing.T, pool *rpc.Pool, addr, method string, body []byte, v any) {
	t.Helper()
	raw, err := pool.Call(addr, method, body)
	if err == nil {
		err = json.Unmarshal(raw, v)
	}
	if err != nil {
		t.Fatalf("%s at %s: %v", method, addr, err)
	}
}

// nodeStats is a node's registry snapshot, from its node.stats.
func nodeStats(t *testing.T, pool *rpc.Pool, addr string) telemetry.RegistrySnapshot {
	t.Helper()
	var snap telemetry.RegistrySnapshot
	operatorCall(t, pool, addr, debug.MethodStats, nil, &snap)
	return snap
}

// fetchTraceSpans is one trace's spans on a node, from its node.traces.
func fetchTraceSpans(t *testing.T, pool *rpc.Pool, addr string, trace uint64) []telemetry.Span {
	t.Helper()
	var spans []telemetry.Span
	operatorCall(t, pool, addr, debug.MethodTraces, debug.TracesQuery{Trace: trace}.Encode(), &spans)
	return spans
}

// relayType extends the Counter shape with relay_add(target, delta): it
// mutates its own count, then cross-invokes add(delta) on target. One
// traced call therefore both replicates (local write, via the segmented
// intermediate commit the cross-invoke forces) and forwards (rpc to the
// target's primary) — the full three-node span tree.
func relayType(t *testing.T) *core.ObjectType {
	t.Helper()
	clean := `
func read params=0
  str "count"
  hostcall val_get
  dup
  push -1
  eq
  jnz absent
  unpack.ptr
  load64
  ret
absent:
  pop
  push 0
  ret
end

func emit params=1 locals=1
  push 8
  hostcall alloc
  local.set 1
  local.get 1
  local.get 0
  store64
  str "count"
  local.get 1
  push 8
  hostcall val_set
  local.get 1
  push 8
  hostcall set_result
  ret
end

func add params=0 export
  call read
  push 0
  hostcall arg
  unpack.ptr
  load64
  add
  call emit
  ret
end

func get params=0 locals=1 export
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  call read
  store64
  local.get 0
  push 8
  hostcall set_result
  ret
end

;; relay_add(target, delta): count += delta locally, then invoke
;; add(delta) on target.
func relay_add params=0 locals=2 export
  call read
  push 1
  hostcall arg
  unpack.ptr
  load64
  add
  call emit
  push 1
  hostcall arg
  unpack.ptr
  load64
  local.set 1
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  local.get 1
  store64
  local.get 0
  push 8
  hostcall call_arg
  push 0
  hostcall arg
  unpack.ptr
  load64
  str "add"
  hostcall invoke
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall set_result
  ret
end
`
	mod, err := vm.Assemble(clean)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	typ, err := core.NewObjectType("Relay",
		[]core.FieldDef{{Name: "count", Kind: core.FieldValue}},
		[]core.MethodInfo{
			{Name: "add"},
			{Name: "get"},
			{Name: "relay_add"},
		}, mod)
	if err != nil {
		t.Fatalf("type: %v", err)
	}
	return typ
}

// TestEndToEndTraceAcrossNodes drives one traced invocation through three
// nodes — forwarded cross-object invoke (group 0 -> group 1) plus
// primary -> backup replication inside group 0 — and asserts that a single
// trace, retrieved with each node's node.traces, spans all three nodes
// with correct parent/child nesting.
func TestEndToEndTraceAcrossNodes(t *testing.T) {
	// Group 0 is n0 (primary) and n2 (backup), group 1 is n1.
	l := startLocal(t, LocalOptions{Groups: []int{2, 1}, Node: NodeOptions{
		Tracing: true,
		Runtime: core.Options{CacheEntries: 1024},
	}})
	n0, n2, n1 := l.Slots[0].Node, l.Slots[1].Node, l.Slots[2].Node

	c := l.Client
	if err := c.RegisterType(relayType(t)); err != nil {
		t.Fatal(err)
	}
	// Object 2 -> group 0 (primary n0, backup n2); object 3 -> group 1 (n1).
	if err := c.CreateObject("Relay", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Relay", 3); err != nil {
		t.Fatal(err)
	}

	// One invocation: relay_add(2) executes at n0, writes its own count
	// (committed and replicated to n2 when the cross-invoke segments the
	// transaction), then cross-invokes add(3), forwarded to n1.
	res, traceID, err := c.InvokeTraced(2, "relay_add", [][]byte{core.I64Bytes(3), core.I64Bytes(11)})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != 11 {
		t.Fatalf("relay_add = %d", core.BytesI64(res))
	}
	if traceID == 0 {
		t.Fatal("InvokeTraced returned no trace ID")
	}

	// Collect the trace from every node's node.traces.
	byNode := make(map[string][]telemetry.Span) // rpc addr -> spans
	var all []telemetry.Span
	for _, n := range []*Node{n0, n2, n1} {
		spans := fetchTraceSpans(t, c.pool, n.Addr(), traceID)
		for _, s := range spans {
			if s.Trace != traceID {
				t.Fatalf("span %+v leaked from another trace (want %016x)", s, traceID)
			}
		}
		byNode[n.Addr()] = spans
		all = append(all, spans...)
	}
	for i, addr := range []string{n0.Addr(), n1.Addr(), n2.Addr()} {
		if len(byNode[addr]) == 0 {
			t.Fatalf("no spans recorded on node n%d (%s); trace does not span all three nodes\nn0=%v\nn1=%v\nn2=%v",
				i, addr, names(byNode[n0.Addr()]), names(byNode[n1.Addr()]), names(byNode[n2.Addr()]))
		}
	}

	find := func(addr, name string) telemetry.Span {
		t.Helper()
		for _, s := range byNode[addr] {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("node %s has no %q span (got %v)", addr, name, names(byNode[addr]))
		return telemetry.Span{}
	}

	// n0: the root invoke with its execution stages nested under it.
	rootInvoke := find(n0.Addr(), "invoke")
	if rootInvoke.Parent != 0 {
		t.Fatalf("root invoke has parent %016x; client is the trace root", rootInvoke.Parent)
	}
	for _, stage := range []string{"vm-exec", "commit", "replicate", "rpc"} {
		s := find(n0.Addr(), stage)
		if s.Parent != rootInvoke.ID {
			t.Errorf("%s parent = %016x, want root invoke %016x", stage, s.Parent, rootInvoke.ID)
		}
	}
	walSync := find(n0.Addr(), "wal-sync")
	commit := find(n0.Addr(), "commit")
	if walSync.Parent != commit.ID {
		t.Errorf("wal-sync parent = %016x, want commit %016x", walSync.Parent, commit.ID)
	}

	// n1: the forwarded cross-invoke nests under n0's rpc span.
	rpcSpan := find(n0.Addr(), "rpc")
	remoteInvoke := find(n1.Addr(), "invoke")
	if remoteInvoke.Parent != rpcSpan.ID {
		t.Errorf("n1 invoke parent = %016x, want n0 rpc span %016x", remoteInvoke.Parent, rpcSpan.ID)
	}

	// n2: the backup apply (one coalesced applyBatch frame for the single
	// write) nests under n0's replicate span.
	replicate := find(n0.Addr(), "replicate")
	apply := find(n2.Addr(), "repl.applyBatch")
	if apply.Parent != replicate.ID {
		t.Errorf("repl.applyBatch parent = %016x, want replicate span %016x", apply.Parent, replicate.ID)
	}

	// Span node labels must match the serving node's RPC address.
	for addr, spans := range byNode {
		for _, s := range spans {
			if s.Node != addr {
				t.Errorf("span %q on %s labelled %q", s.Name, addr, s.Node)
			}
		}
	}

	// Warm the result cache: repeated deterministic read-only reads.
	for i := 0; i < 8; i++ {
		if _, err := c.InvokeRead(3, "get", nil); err != nil {
			t.Fatal(err)
		}
	}

	// node.stats must show the load: invocations by method, replication
	// traffic on both sides, forwarding, and cache hits somewhere.
	m0 := nodeStats(t, c.pool, n0.Addr())
	m1 := nodeStats(t, c.pool, n1.Addr())
	m2 := nodeStats(t, c.pool, n2.Addr())
	if m0.Counters["core.invoke.relay_add"] == 0 {
		t.Errorf("n0 core.invoke.relay_add = 0; counters = %v", m0.Counters)
	}
	if m0.Counters["repl.shipped"] == 0 {
		t.Error("n0 repl.shipped = 0")
	}
	if m2.Counters["repl.applied"] == 0 {
		t.Error("n2 repl.applied = 0")
	}
	if m0.Counters["cluster.forwards"] == 0 {
		t.Error("n0 cluster.forwards = 0")
	}
	if m1.Counters["core.invoke.add"] == 0 {
		t.Error("n1 core.invoke.add = 0")
	}
	if m1.Counters["core.cache_hits"] == 0 {
		t.Error("n1 core.cache_hits = 0 after repeated deterministic reads")
	}
	if m0.Counters["rpc.server.requests"] == 0 || m0.Counters["rpc.server.rx_bytes"] == 0 {
		t.Error("n0 rpc server counters empty")
	}
	if m0.Histograms["core.invoke"].Count == 0 {
		t.Errorf("n0 invoke histogram empty; histograms = %v", m0.Histograms)
	}
}

func names(spans []telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestUntracedCreateIsOneTrace: on a -trace deployment an untraced create
// mints one trace at its commit, and the backups' applies join it — its
// commit, WAL sync, replicate and every backup's repl.applyBatch carry one
// trace ID.
func TestUntracedCreateIsOneTrace(t *testing.T) {
	l := startLocal(t, LocalOptions{Groups: []int{3}, Node: NodeOptions{Tracing: true}})
	if err := l.Client.RegisterType(relayType(t)); err != nil {
		t.Fatal(err)
	}
	traces := func() map[uint64]map[string]bool { // trace -> node addr -> seen
		out := make(map[uint64]map[string]bool)
		for _, n := range l.Nodes() {
			for _, sp := range fetchTraceSpans(t, l.Client.pool, n.Addr(), 0) {
				if out[sp.Trace] == nil {
					out[sp.Trace] = make(map[string]bool)
				}
				out[sp.Trace][n.Addr()] = true
			}
		}
		return out
	}
	before := traces()
	if err := l.Client.CreateObject("Relay", 1); err != nil {
		t.Fatal(err)
	}
	var minted []uint64
	for trace, nodes := range traces() {
		if before[trace] == nil {
			minted = append(minted, trace)
			if len(nodes) != 3 {
				t.Errorf("trace %016x has spans on %d of 3 replicas", trace, len(nodes))
			}
		}
	}
	if len(minted) != 1 {
		t.Fatalf("one untraced create minted %d traces (%016x), want 1 across primary and backups", len(minted), minted)
	}
}

// TestStatsLeavesOutItsOwnCall: node.stats samples the node from inside
// the call, which the RPC server counts in flight; an idle node's answer
// still reads no request in flight, as its registry does when read in
// process.
func TestStatsLeavesOutItsOwnCall(t *testing.T) {
	l := startLocal(t, LocalOptions{Groups: []int{1}})
	node := l.Slots[0].Node
	for range 2 {
		rpcIn, rpcOK := nodeStats(t, l.Client.pool, node.Addr()).Gauges["rpc.server.in_flight"]
		if local := node.Metrics().Snapshot().Gauges["rpc.server.in_flight"]; !rpcOK || rpcIn != 0 || local != 0 {
			t.Fatalf("idle node: node.stats reads %d requests in flight (present %v), the registry %d; want 0", rpcIn, rpcOK, local)
		}
	}
}

// TestOneSnapshotTwoExits boots a node and checks the one-surface property
// end to end: the registry's snapshot is what the debug server's /metrics
// renders and what the node.stats RPC answers with — instrument for
// instrument — and every point-in-time value that the node used to
// re-enumerate by hand is there because its owner registered it.
func TestOneSnapshotTwoExits(t *testing.T) {
	l := startLocal(t, LocalOptions{Groups: []int{1}, Node: NodeOptions{
		Runtime: core.Options{CacheEntries: 64},
	}})
	node, c := l.Slots[0].Node, l.Client
	dbg, err := debug.Start("127.0.0.1:0", node.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(1)}); err != nil {
		t.Fatal(err)
	}

	want := node.Metrics().Snapshot()
	text := fetchMetrics(t, dbg.Addr())
	overRPC := nodeStats(t, c.pool, node.Addr())
	for name := range want.Counters {
		_, inText := text[name]
		_, inRPC := overRPC.Counters[name]
		if !inText || !inRPC {
			t.Errorf("counter %s: /metrics %v, node.stats %v", name, inText, inRPC)
		}
	}
	for name := range want.Gauges {
		_, inText := text[name]
		_, inRPC := overRPC.Gauges[name]
		if !inText || !inRPC {
			t.Errorf("gauge %s: /metrics %v, node.stats %v", name, inText, inRPC)
		}
	}
	for name := range want.Histograms {
		_, inText := text[name+"_count"]
		_, inRPC := overRPC.Histograms[name]
		if !inText || !inRPC {
			t.Errorf("histogram %s: /metrics %v, node.stats %v", name, inText, inRPC)
		}
	}
	for _, name := range []string{
		"core.invocations", "core.pool_warm", "core.pool_cold",
		"cache.validations", "cache.evictions", "cache.bypass", "cache.invalidations",
		"shard.overrides", "cluster.primary",
		"move.in_flight", "move.inbound_sessions",
		"vm.compiled_modules", "vm.compile_ns",
		"lease.held",
	} {
		if _, ok := text[name]; !ok {
			t.Errorf("%s is not on /metrics: its owner did not register it", name)
		}
	}
	if text["cluster.primary"] != 1 || text["core.invocations"] != 1 || text["core.pool_cold"] != 1 {
		t.Errorf("sampled values: cluster.primary=%d core.invocations=%d core.pool_cold=%d, want 1/1/1",
			text["cluster.primary"], text["core.invocations"], text["core.pool_cold"])
	}
}
