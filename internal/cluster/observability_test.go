package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/vm"
)

// fetchMetrics GETs a node's /metrics endpoint and parses the plain-text
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

// fetchTraceSpans GETs /traces?trace=<id> and returns the decoded spans.
func fetchTraceSpans(t *testing.T, addr string, trace uint64) []telemetry.Span {
	t.Helper()
	url := fmt.Sprintf("http://%s/traces?trace=%016x", addr, trace)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET /traces: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var env struct {
		Node  string           `json:"node"`
		Total uint64           `json:"total_recorded"`
		Spans []telemetry.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode /traces: %v", err)
	}
	return env.Spans
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
			{Name: "get", ReadOnly: true, Deterministic: true},
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
// trace, retrieved over the debug HTTP endpoints, spans all three nodes
// with correct parent/child nesting.
func TestEndToEndTraceAcrossNodes(t *testing.T) {
	// Group 0 is n0 (primary) and n2 (backup), group 1 is n1.
	l := startLocal(t, LocalOptions{Groups: []int{2, 1}, Node: NodeOptions{
		DebugAddr: "127.0.0.1:0",
		Tracing:   true,
		Runtime:   core.Options{CacheEntries: 1024},
	}})
	dir := l.Dir
	n0, n2, n1 := l.Slots[0].Node, l.Slots[1].Node, l.Slots[2].Node

	c, err := NewClient(ClientConfig{Directory: dir, Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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

	// Collect the trace from every node's debug endpoint.
	byNode := make(map[string][]telemetry.Span) // rpc addr -> spans
	var all []telemetry.Span
	for _, n := range []*Node{n0, n2, n1} {
		if n.DebugAddr() == "" {
			t.Fatal("debug server not running")
		}
		spans := fetchTraceSpans(t, n.DebugAddr(), traceID)
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

	// /metrics must show the load: invocations by method, replication
	// traffic on both sides, forwarding, and cache hits somewhere.
	m0 := fetchMetrics(t, n0.DebugAddr())
	m1 := fetchMetrics(t, n1.DebugAddr())
	m2 := fetchMetrics(t, n2.DebugAddr())
	if m0["core.invoke.relay_add"] == 0 {
		t.Errorf("n0 core.invoke.relay_add = 0; metrics = %v", m0)
	}
	if m0["repl.shipped"] == 0 {
		t.Error("n0 repl.shipped = 0")
	}
	if m2["repl.applied"] == 0 {
		t.Error("n2 repl.applied = 0")
	}
	if m0["cluster.forwards"] == 0 {
		t.Error("n0 cluster.forwards = 0")
	}
	if m1["core.invoke.add"] == 0 {
		t.Error("n1 core.invoke.add = 0")
	}
	if m1["core.cache_hits"] == 0 {
		t.Error("n1 core.cache_hits = 0 after repeated deterministic reads")
	}
	if m0["rpc.server.requests"] == 0 || m0["rpc.server.rx_bytes"] == 0 {
		t.Error("n0 rpc server counters empty")
	}
	if m0["core.invoke_count"] == 0 {
		t.Errorf("n0 invoke histogram empty; metrics = %v", m0)
	}
}

func names(spans []telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestOneSnapshotThreeExits boots a node and checks the one-surface
// property end to end: the registry's snapshot is what /metrics renders,
// what /metrics.json serves and what the node.stats RPC answers with —
// instrument for instrument — and every point-in-time value that the node
// used to re-enumerate by hand is there because its owner registered it.
func TestOneSnapshotThreeExits(t *testing.T) {
	l := startLocal(t, LocalOptions{Groups: []int{1}, Node: NodeOptions{
		DebugAddr: "127.0.0.1:0",
		Runtime:   core.Options{CacheEntries: 64},
	}})
	node, c := l.Slots[0].Node, l.Client
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
	text := fetchMetrics(t, node.DebugAddr())
	var overHTTP, overRPC telemetry.RegistrySnapshot
	body, err := httpGetBody(node.DebugAddr() + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(body), &overHTTP); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	raw, err := c.Stats(node.Addr())
	if err != nil {
		t.Fatalf("node.stats: %v", err)
	}
	if err := json.Unmarshal(raw, &overRPC); err != nil {
		t.Fatalf("node.stats: %v", err)
	}
	for name := range want.Counters {
		_, inText := text[name]
		_, inHTTP := overHTTP.Counters[name]
		_, inRPC := overRPC.Counters[name]
		if !inText || !inHTTP || !inRPC {
			t.Errorf("counter %s: /metrics %v, /metrics.json %v, node.stats %v", name, inText, inHTTP, inRPC)
		}
	}
	for name := range want.Gauges {
		_, inText := text[name]
		_, inHTTP := overHTTP.Gauges[name]
		_, inRPC := overRPC.Gauges[name]
		if !inText || !inHTTP || !inRPC {
			t.Errorf("gauge %s: /metrics %v, /metrics.json %v, node.stats %v", name, inText, inHTTP, inRPC)
		}
	}
	for name := range want.Histograms {
		_, inText := text[name+"_count"]
		_, inHTTP := overHTTP.Histograms[name]
		_, inRPC := overRPC.Histograms[name]
		if !inText || !inHTTP || !inRPC {
			t.Errorf("histogram %s: /metrics %v, /metrics.json %v, node.stats %v", name, inText, inHTTP, inRPC)
		}
	}
	for _, name := range []string{
		"core.invocations", "core.pool_warm", "core.pool_cold",
		"store.block_cache_hits", "store.block_cache_misses",
		"cache.validations", "cache.evictions", "cache.bypass", "cache.invalidations",
		"shard.overrides", "shard.overrides_redundant", "cluster.primary", "cluster.fenced_objects",
		"move.in_flight", "move.inbound_sessions",
		"vm.compiled_modules", "vm.compile_ns",
		"lease.held", "lease.held_now",
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
