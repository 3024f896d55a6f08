package cluster

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
)

// scriptedNode answers the four client entry points' RPC methods: the
// first len(script) calls fail with the scripted errors, every later one
// succeeds. calls counts what it received.
type scriptedNode struct {
	addr  string
	calls atomic.Int32
}

func startScriptedNode(t *testing.T, script ...error) *scriptedNode {
	t.Helper()
	n := &scriptedNode{}
	srv := rpc.NewServer()
	for _, method := range []string{MethodInvoke, MethodInvokeTx, MethodCreate, MethodDelete} {
		reply := []byte("ok")
		if method == MethodInvokeTx {
			reply = encodeTxResp([][]byte{[]byte("ok")})
		}
		srv.Handle(method, func(body []byte) ([]byte, error) {
			if i := int(n.calls.Add(1)); i <= len(script) {
				return nil, script[i-1]
			}
			return reply, nil
		})
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	n.addr = addr
	return n
}

// TestClientRetryUniform pins the client's one retry loop and the two
// failure shapes it classifies: every entry point follows a not-responsible
// hint, and fails a write at once on a connection error it cannot route
// around.
func TestClientRetryUniform(t *testing.T) {
	entryPoints := []struct {
		name string
		call func(c *Client) error
	}{
		{"Invoke", func(c *Client) error { _, err := c.Invoke(2, "m", nil); return err }},
		{"InvokeTransaction", func(c *Client) error {
			_, err := c.InvokeTransaction([]core.TxCall{{Object: 2, Method: "m"}})
			return err
		}},
		{"CreateObject", func(c *Client) error { return c.CreateObject("T", 2) }},
		{"DeleteObject", func(c *Client) error { return c.DeleteObject(2) }},
	}
	// A static directory, no coordinator: the view never changes, which is
	// what a client sees after a live migration it was not told about.
	clientAt := func(t *testing.T, primary string) *Client {
		t.Helper()
		c, err := NewClient(ClientConfig{
			Directory:      shard.NewDirectory([]shard.Group{{ID: 0, Primary: primary}}),
			RetryBaseDelay: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	for _, ep := range entryPoints {
		t.Run(ep.name+"/hint", func(t *testing.T) {
			newHome := startScriptedNode(t)
			oldHome := startScriptedNode(t, notResponsibleError(newHome.addr))
			c := clientAt(t, oldHome.addr)
			if err := ep.call(c); err != nil {
				t.Fatalf("did not follow the hint: %v", err)
			}
			if o, n := oldHome.calls.Load(), newHome.calls.Load(); o != 1 || n != 1 {
				t.Fatalf("old home saw %d sends, new home %d; want 1 and 1", o, n)
			}
		})
		t.Run(ep.name+"/dead", func(t *testing.T) {
			// An address nothing listens on.
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			dead := l.Addr().String()
			l.Close()
			c := clientAt(t, dead)
			err = ep.call(c)
			if err == nil || strings.Contains(err.Error(), "after retries") {
				t.Fatalf("want the dial error from the first attempt, got %v", err)
			}
		})
	}
}
