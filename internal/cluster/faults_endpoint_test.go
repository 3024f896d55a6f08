package cluster

import (
	"strings"
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/debug"
	"lambdastore/internal/fault"
	"lambdastore/internal/telemetry"
)

// TestFaultsEndpoint drives the fault plane end to end over the node's RPC
// port, the way `lambdactl fault` does: arm a one-shot error on invocations
// sent to the node, watch a client invocation fail, confirm the firing shows
// up in the node.faults description (the plane's one counting surface:
// nothing lands on node.stats), then reset the plane and watch the same
// invocation succeed.
func TestFaultsEndpoint(t *testing.T) {
	defer fault.Reset()
	// One attempt per call: a retry would absorb the one-shot error.
	opts := quiet([]int{1}, NodeOptions{})
	opts.Client.MaxRetries = 1
	l := startLocal(t, opts)
	node, c := l.Slots[0].Node, l.Client
	faults := func(script string) (string, error) {
		desc, err := c.pool.Call(node.Addr(), debug.MethodFaults, []byte(script))
		return string(desc), err
	}
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}

	// A malformed script must be rejected with the offending line echoed.
	if desc, err := faults("rule obj.invoke explode"); err == nil || !strings.Contains(err.Error(), "explode") {
		t.Fatalf("malformed rule: %q, %v; want it refused by name", desc, err)
	}

	// Arm one injected send error against this node, exactly once.
	rule := "rule " + MethodInvoke + "@" + node.Addr() + " error count=1"
	if desc, err := faults(rule); err != nil {
		t.Fatalf("node.faults: %q, %v", desc, err)
	}
	if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(1)}); err == nil {
		t.Fatal("invoke succeeded through an armed error rule")
	}

	desc, err := faults("")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, rule+"\n") {
		t.Errorf("node.faults does not describe the armed rule:\n%s", desc)
	}
	if !strings.Contains(desc, "# fired "+MethodInvoke+".error 1") {
		t.Errorf("node.faults does not report the firing:\n%s", desc)
	}
	snap := nodeStats(t, c.pool, node.Addr())
	for _, names := range [][]string{telemetry.SortedNames(snap.Counters), telemetry.SortedNames(snap.Gauges), telemetry.SortedNames(snap.Histograms)} {
		for _, name := range names {
			if strings.HasPrefix(name, "fault.") {
				t.Errorf("node.stats carries %s: the plane counts on node.faults only", name)
			}
		}
	}

	// Reset disarms everything; the cluster heals.
	if desc, err := faults("reset"); err != nil {
		t.Fatalf("reset: %q, %v", desc, err)
	}
	if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(1)}); err != nil {
		t.Fatalf("invoke after reset: %v", err)
	}
}
