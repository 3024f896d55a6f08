package cluster

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/fault"
)

// postFaults POSTs a fault-grammar script to a node's /faults endpoint and
// returns the response body and status code.
func postFaults(t *testing.T, debugAddr, script string) (string, int) {
	t.Helper()
	resp, err := http.Post("http://"+debugAddr+"/faults", "text/plain", strings.NewReader(script))
	if err != nil {
		t.Fatalf("POST /faults: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /faults response: %v", err)
	}
	return string(body), resp.StatusCode
}

// TestFaultsEndpoint drives the fault plane end to end over HTTP, the way
// `lambdactl fault` does: arm a one-shot error on invocations sent to the
// node, watch a client invocation fail, confirm the firing shows up in the
// GET /faults description (the plane's one counting surface: nothing lands
// on /metrics), then reset the plane and watch the same invocation succeed.
func TestFaultsEndpoint(t *testing.T) {
	defer fault.Reset()
	l := startLocal(t, LocalOptions{Groups: []int{1}, Node: NodeOptions{DebugAddr: "127.0.0.1:0"}})
	node, c := l.Slots[0].Node, l.Client
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}

	// A malformed script must be rejected with the offending line echoed.
	if body, code := postFaults(t, node.DebugAddr(), "rule obj.invoke explode"); code == http.StatusOK {
		t.Fatalf("malformed rule accepted: %q", body)
	}

	// Arm one injected send error against this node, exactly once.
	rule := "rule " + MethodInvoke + "@" + node.Addr() + " error count=1"
	if body, code := postFaults(t, node.DebugAddr(), rule); code != http.StatusOK {
		t.Fatalf("POST /faults: %d %q", code, body)
	}
	if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(1)}); err == nil {
		t.Fatal("invoke succeeded through an armed error rule")
	}

	desc, err := httpGetBody(node.DebugAddr() + "/faults")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, rule+"\n") {
		t.Errorf("GET /faults does not describe the armed rule:\n%s", desc)
	}
	if !strings.Contains(desc, "# fired "+MethodInvoke+".error 1") {
		t.Errorf("GET /faults does not report the firing:\n%s", desc)
	}
	for name := range fetchMetrics(t, node.DebugAddr()) {
		if strings.HasPrefix(name, "fault.") {
			t.Errorf("/metrics carries %s: the plane counts on GET /faults only", name)
		}
	}

	// Reset disarms everything; the cluster heals.
	if body, code := postFaults(t, node.DebugAddr(), "reset"); code != http.StatusOK {
		t.Fatalf("POST reset: %d %q", code, body)
	}
	if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(1)}); err != nil {
		t.Fatalf("invoke after reset: %v", err)
	}
}

// httpGetBody fetches a debug URL and returns its body.
func httpGetBody(hostPath string) (string, error) {
	resp, err := http.Get("http://" + hostPath)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}
