package main

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"lambdastore/internal/cluster"
	"lambdastore/internal/fault"
	"lambdastore/internal/retwis"
	"lambdastore/internal/rpc"
)

// newOperator returns an operator over a pool of its own, addressing addrs
// and printing nowhere.
func newOperator(t *testing.T, addrs ...string) *operator {
	t.Helper()
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	return &operator{pool: pool, addrs: addrs, out: io.Discard}
}

// TestOperatorCommands runs stats, traces, trace, recovery and fault
// through the commands' own functions against a one-node deployment: every
// one of them reaches the node over its RPC port alone.
func TestOperatorCommands(t *testing.T) {
	defer fault.Reset()
	// One attempt per call: a retry would absorb the one-shot error below.
	l, err := cluster.StartLocal(cluster.LocalOptions{Groups: []int{1}, Node: cluster.NodeOptions{Tracing: true}, Client: cluster.ClientConfig{MaxRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, addr := l.Client, l.Slots[0].Addr
	typ, err := retwis.NewType()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject(retwis.TypeName, 1); err != nil {
		t.Fatal(err)
	}
	_, trace, err := c.InvokeTraced(1, "create_account", [][]byte{[]byte("alice")})
	if err != nil {
		t.Fatal(err)
	}

	o := newOperator(t, addr)
	run := func(cmd func(*operator, []string) error, args ...string) string {
		t.Helper()
		var out strings.Builder
		o.out = &out
		if err := cmd(o, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String()
	}
	for _, tc := range []struct {
		name string
		cmd  func(*operator, []string) error
		want []string
	}{
		{"stats", (*operator).stats, []string{"== " + addr + " (rates over ", "core.invoke.create_account", "rpc.server.in_flight"}},
		{"traces", (*operator).traces, []string{"critical path:", "vm-exec"}},
		{"recovery", (*operator).recovery, []string{"== " + addr + " (", "state=", "donating to: (none)"}},
		{"fault", (*operator).fault, []string{"== " + addr + "\n", "seed "}},
	} {
		out := run(tc.cmd)
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s prints no %q:\n%s", tc.name, w, out)
			}
		}
	}
	if out := run((*operator).trace, fmt.Sprintf("%016x", trace)); !strings.Contains(out, fmt.Sprintf("%016x", trace)) || !strings.Contains(out, "critical path:") {
		t.Errorf("trace %016x:\n%s", trace, out)
	}
	if err := o.trace([]string{"1"}); err == nil {
		t.Error("trace of an unknown ID succeeded")
	}

	// A daemon that cannot be reached does not stop fault at it: the
	// addresses after it are still armed, and fault reports the failure.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := ln.Addr().String()
	ln.Close()
	rule := "rule " + cluster.MethodInvoke + "@" + addr + " error count=1"
	var out strings.Builder
	o.addrs, o.out = []string{gone, addr}, &out
	if err := o.fault(strings.Fields(rule)); err == nil || !strings.Contains(err.Error(), gone) {
		t.Errorf("fault past an unreachable daemon: err = %v, want it named", err)
	}
	if !strings.Contains(out.String(), "== "+gone+": refused") || !strings.Contains(out.String(), rule+"\n") {
		t.Fatalf("fault %s: want %s reported refused and the rule described after it:\n%s", rule, gone, out.String())
	}
	o.addrs = []string{addr}
	if _, err := c.Invoke(1, "get_name", nil); err == nil {
		t.Error("invoke succeeded through an armed error rule")
	}
	if err := o.fault([]string{"bogus"}); err == nil {
		t.Error("a bad command was accepted")
	}
	if out := run((*operator).fault, "reset"); strings.Contains(out, "rule ") {
		t.Errorf("reset left rules armed:\n%s", out)
	}
	if _, err := c.Invoke(1, "get_name", nil); err != nil {
		t.Errorf("invoke after reset: %v", err)
	}
}
