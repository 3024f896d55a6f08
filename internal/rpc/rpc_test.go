package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lambdastore/internal/telemetry"
)

func startEcho(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(body []byte) ([]byte, error) {
		return body, nil
	})
	s.Handle("fail", func(body []byte) ([]byte, error) {
		return nil, fmt.Errorf("deliberate failure: %s", body)
	})
	s.Handle("slow", func(body []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return body, nil
	})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		msg := []byte(fmt.Sprintf("payload-%d", i))
		got, err := c.Call("echo", msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("echo = %q", got)
		}
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("fail", []byte("boom"))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !strings.Contains(re.Msg, "deliberate failure: boom") {
		t.Fatalf("remote msg = %q", re.Msg)
	}
}

func TestNoSuchMethod(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("missing", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "no such method") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("concurrent-%d", i))
			got, err := c.Call("echo", msg)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- fmt.Errorf("response mismatch: %q vs %q", got, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSlowHandlerDoesNotBlockFastOnes(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		if _, err := c.Call("slow", []byte("s")); err != nil {
			t.Errorf("slow: %v", err)
		}
	}()
	// Give the slow request a head start on the same connection.
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	if _, err := c.Call("echo", []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("fast call took %v behind a slow one", d)
	}
	<-slowDone
}

func TestCallTimeout(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr, &ClientOptions{Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("slow", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestServerCloseFailsInFlight(t *testing.T) {
	s, addr := startEcho(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call("slow", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call succeeded past server close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung after server close")
	}
}

func TestClientCloseFailsCalls(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Call("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestInjectedDelay(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr, &ClientOptions{Delay: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Call("echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("call with 2x25ms injected delay took only %v", d)
	}
}

func TestPoolRedialsAfterFailure(t *testing.T) {
	s, addr := startEcho(t)
	p := NewPool(nil)
	defer p.Close()
	if _, err := p.Call(addr, "echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Kill the server's connections; the pooled client fails.
	s.Close()
	if _, err := p.Call(addr, "echo", []byte("b")); err == nil {
		t.Fatal("call to closed server succeeded")
	}

	// Restart a server on the same address.
	s2 := NewServer()
	s2.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	if _, err := s2.Serve(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer s2.Close()
	// Pool must detect the dead client and redial.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := p.Call(addr, "echo", []byte("c")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never recovered")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolDropsLaneClosedByPeer: a call made at once after the peer closed
// the pool's lane and came back on the same address goes to the new peer.
// Pool.lane hands out a lane whose peer closed it until the lane's reader
// has read the close, so the call fails with ErrClosed in about 4 runs of
// 10: a
// known defect (ROADMAP, "A closed RPC lane is handed out"), skipped until
// it is mended.
func TestPoolDropsLaneClosedByPeer(t *testing.T) {
	t.Skip("known defect: Pool.lane hands out a lane its peer closed (ROADMAP)")
	s, addr := startEcho(t)
	p := NewPool(nil)
	defer p.Close()
	for range 3 {
		if _, err := p.Call(addr, "echo", []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := NewServer()
	s2.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	if _, err := s2.Serve(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer s2.Close()
	if _, err := p.Call(addr, "echo", []byte("b")); err != nil {
		t.Fatalf("first call after the peer came back: %v", err)
	}
}

func TestMessageEncodeDecode(t *testing.T) {
	m := &message{kind: msgRequest, id: 77, method: "do.thing", body: []byte{1, 2, 3}}
	var dec message
	name, err := dec.decode(m.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if dec.kind != msgRequest || dec.id != 77 || string(name) != "do.thing" || !bytes.Equal(dec.body, []byte{1, 2, 3}) {
		t.Fatalf("decoded %+v, method %q", dec, name)
	}
	if _, err := dec.decode(nil); err == nil {
		t.Fatal("empty message decoded")
	}
	if _, err := dec.decode([]byte{1}); err == nil {
		t.Fatal("truncated message decoded")
	}
}

func TestLargePayload(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	got, err := c.Call("echo", big)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large echo failed: len=%d err=%v", len(got), err)
	}
}

func TestTraceContextPropagation(t *testing.T) {
	s := NewServer()
	var mu sync.Mutex
	var seen []telemetry.SpanContext
	s.HandleCtx("traced", func(info CallInfo, body []byte) ([]byte, error) {
		mu.Lock()
		seen = append(seen, info.Trace)
		mu.Unlock()
		return body, nil
	})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := telemetry.SpanContext{Trace: 0xdeadbeef, Span: 0x1234}
	if _, err := c.CallCtx(ctx, "traced", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A plain Call must arrive untraced.
	if _, err := c.Call("traced", []byte("y")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("handler saw %d calls", len(seen))
	}
	if seen[0] != ctx {
		t.Fatalf("handler saw context %+v, want %+v", seen[0], ctx)
	}
	if seen[1].Valid() {
		t.Fatalf("untraced call carried context %+v", seen[1])
	}
}

func TestPoolCallCtxAndTelemetry(t *testing.T) {
	s := NewServer()
	reg := telemetry.NewRegistry()
	s.SetTelemetry(reg)
	var got telemetry.SpanContext
	s.HandleCtx("probe", func(info CallInfo, body []byte) ([]byte, error) {
		got = info.Trace
		return body, nil
	})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := NewPool(nil)
	p.SetTelemetry(reg)
	defer p.Close()
	ctx := telemetry.NewRootContext()
	if _, err := p.CallCtx(addr, ctx, "probe", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if got != ctx {
		t.Fatalf("pool call carried %+v, want %+v", got, ctx)
	}
	if n := reg.Counter("rpc.server.requests").Value(); n != 1 {
		t.Fatalf("rpc.server.requests = %d", n)
	}
	if n := reg.Counter("rpc.client.calls").Value(); n != 1 {
		t.Fatalf("rpc.client.calls = %d", n)
	}
	if n := reg.Counter("rpc.server.rx_bytes").Value(); n == 0 {
		t.Fatal("rpc.server.rx_bytes not counted")
	}
}
