package rpc

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/fault"
)

// faultServer serves "count", which counts its runs and echoes, and "other".
func faultServer(t *testing.T) (addr string, runs *atomic.Int64) {
	t.Helper()
	runs = new(atomic.Int64)
	s := NewServer()
	s.Handle("count", func(b []byte) ([]byte, error) { runs.Add(1); return b, nil })
	s.Handle("other", func(b []byte) ([]byte, error) { return b, nil })
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr, runs
}

// labelledPool is a pool whose messages carry label as their from.
func labelledPool(t *testing.T, label string, opts *ClientOptions) *Pool {
	t.Helper()
	p := NewPool(opts)
	p.SetFaultLabel(label)
	t.Cleanup(p.Close)
	return p
}

// arm applies one fault-grammar command for the rest of the test.
func arm(t *testing.T, cmd string) {
	t.Helper()
	if err := fault.ApplyAll(cmd); err != nil {
		t.Fatal(err)
	}
}

// TestFaultSeam drives every action of the network's one fault seam
// through a real Server and Pool.
func TestFaultSeam(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	addr, runs := faultServer(t)
	call := func(p *Pool, method string) error {
		_, err := p.Call(addr, method, []byte("x"))
		return err
	}

	t.Run("drop", func(t *testing.T) {
		t.Cleanup(fault.Clear)
		p := labelledPool(t, "", &ClientOptions{Timeout: 50 * time.Millisecond})
		arm(t, "rule count drop")
		before := runs.Load()
		if err := call(p, "count"); !errors.Is(err, ErrTimeout) {
			t.Fatalf("dropped call: err = %v, want a timeout", err)
		}
		if runs.Load() != before {
			t.Fatal("a dropped message reached its handler")
		}
	})

	t.Run("error", func(t *testing.T) {
		t.Cleanup(fault.Clear)
		p := labelledPool(t, "", nil)
		arm(t, "rule count error:disk")
		before := runs.Load()
		err := call(p, "count")
		if !errors.Is(err, fault.ErrInjected) || !strings.Contains(err.Error(), "disk") {
			t.Fatalf("err = %v, want the wrapped injected error", err)
		}
		if runs.Load() != before {
			t.Fatal("the handler ran for a message that failed to send")
		}
	})

	t.Run("dup", func(t *testing.T) {
		t.Cleanup(fault.Clear)
		p := labelledPool(t, "", nil)
		arm(t, "rule count dup count=1")
		before := runs.Load()
		if err := call(p, "count"); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runs.Load() != before+2 {
			if time.Now().After(deadline) {
				t.Fatalf("handler ran %d times for a duplicated message, want 2", runs.Load()-before)
			}
			time.Sleep(time.Millisecond)
		}
		if err := call(p, "count"); err != nil {
			t.Fatalf("the second reply reached another call: %v", err)
		}
	})

	t.Run("crash", func(t *testing.T) {
		t.Cleanup(fault.Clear)
		p := labelledPool(t, "", nil)
		if err := call(p, "other"); err != nil {
			t.Fatal(err)
		}
		first := p.lanes[addr][0]
		arm(t, "rule count crash count=1")
		if err := call(p, "count"); !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
		if err := call(p, "count"); err != nil {
			t.Fatalf("call after a crash: %v", err)
		}
		if lanes := p.lanes[addr]; len(lanes) != 1 || lanes[0] == first {
			t.Fatalf("the pool kept the crashed connection: lanes %v, crashed %p", lanes, first)
		}
	})

	t.Run("delay", func(t *testing.T) {
		t.Cleanup(fault.Clear)
		p := labelledPool(t, "", nil)
		arm(t, "rule count delay:30ms")
		start := time.Now()
		if err := call(p, "count"); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < 30*time.Millisecond {
			t.Fatalf("delayed call took %v, want >= 30ms", took)
		}
	})

	t.Run("narrowing", func(t *testing.T) {
		t.Cleanup(fault.Clear)
		anon, named := labelledPool(t, "", nil), labelledPool(t, "n1", nil)
		arm(t, "rule count error")
		if err := call(named, "other"); err != nil {
			t.Fatalf("a rule on count fired for other: %v", err)
		}
		fault.Clear()
		arm(t, "rule * error from=n1")
		if err := call(anon, "count"); err != nil {
			t.Fatalf("a from rule fired for an unlabelled pool: %v", err)
		}
		if err := call(named, "count"); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("a from rule missed its caller: %v", err)
		}
	})
}

// TestPartitionAtDialAndSend: a partition fails both directions of a link,
// at the dial of a new connection and at the send on an open one, leaves
// other callers alone, and heal restores it.
func TestPartitionAtDialAndSend(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	a, _ := faultServer(t)
	b, _ := faultServer(t)
	warmAB, warmBA := labelledPool(t, a, nil), labelledPool(t, b, nil)
	for _, w := range []struct {
		p  *Pool
		to string
	}{{warmAB, b}, {warmBA, a}} {
		if _, err := w.p.Call(w.to, "count", nil); err != nil {
			t.Fatal(err)
		}
	}
	arm(t, "partition "+a+" "+b)
	links := []struct {
		name  string
		p     *Pool
		to    string
		stage string
	}{
		{"a->b send", warmAB, b, "rpc: send"},
		{"b->a send", warmBA, a, "rpc: send"},
		{"a->b dial", labelledPool(t, a, nil), b, "rpc: dial"},
		{"b->a dial", labelledPool(t, b, nil), a, "rpc: dial"},
	}
	for _, l := range links {
		_, err := l.p.Call(l.to, "count", nil)
		if !errors.Is(err, fault.ErrPartitioned) || !strings.Contains(err.Error(), l.stage) {
			t.Errorf("%s: err = %v, want ErrPartitioned at %q", l.name, err, l.stage)
		}
	}
	if _, err := labelledPool(t, "", nil).Call(b, "count", nil); err != nil {
		t.Errorf("a caller outside the partition was cut: %v", err)
	}
	arm(t, "heal "+b+" "+a)
	for _, l := range links {
		if _, err := l.p.Call(l.to, "count", nil); err != nil {
			t.Errorf("%s after heal: %v", l.name, err)
		}
	}
}
