package rpc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// frameBytes encodes one request message as a length-prefixed wire frame.
func frameBytes(bodyLen int) []byte {
	return appendFrame(nil, &message{kind: msgRequest, id: 7, method: "repl.applyBatch", body: make([]byte, bodyLen)})
}

// BenchmarkReadFrame measures the receive path's per-frame allocations:
// the frame keeps its buffer and decodes the message in place into it, so
// steady state allocates nothing per frame.
func BenchmarkReadFrame(b *testing.B) {
	frame := frameBytes(4 << 10)
	r := bytes.NewReader(frame)
	f := new(inFrame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if err := f.read(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadFrameAllocBound guards the in-place receive path: a warm frame
// allocates nothing — no message, no header scratch, no buffer, and never a
// body copy, which would scale with the frame's size.
func TestReadFrameAllocBound(t *testing.T) {
	frame := frameBytes(64 << 10)
	r := bytes.NewReader(frame)
	f := new(inFrame)
	read := func() {
		r.Reset(frame)
		if err := f.read(r); err != nil {
			t.Fatal(err)
		}
		if string(f.name) != "repl.applyBatch" || len(f.msg.body) != 64<<10 {
			t.Fatalf("decoded %q with a %d-byte body", f.name, len(f.msg.body))
		}
	}
	read() // size the frame's buffer
	if allocs := testing.AllocsPerRun(100, read); allocs > 0 {
		t.Fatalf("reading a frame allocates %.1f objects, want 0 (decoded in place into the frame's buffer)", allocs)
	}
}

// TestCallAllocBound guards one round trip on a warm connection, client and
// server side together. The waiter, the timer and the server's request frame
// are pooled, the handler goroutine is spawned from the frame, the client's
// reader keeps its frame, and both messages live on stacks, so what is left
// is, for a non-empty reply, the caller's own copy of it.
func TestCallAllocBound(t *testing.T) {
	srv := NewServer()
	reply := make([]byte, 1600)
	srv.Handle("noop", func([]byte) ([]byte, error) { return nil, nil })
	srv.Handle("reply", func([]byte) ([]byte, error) { return reply, nil })
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	body := make([]byte, 512)
	for _, tc := range []struct {
		method string
		bound  float64
	}{{"noop", 0}, {"reply", 1}} {
		call := func() {
			if _, err := c.Call(tc.method, body); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			call()
		}
		if allocs := testing.AllocsPerRun(300, call); allocs > tc.bound && !raceEnabled {
			t.Fatalf("one %s call allocates %.1f objects, want <= %.0f", tc.method, allocs, tc.bound)
		}
	}
}

// BenchmarkCall is one warm round trip with a small reply: make bench
// requires it to report at most 1 allocs/op, the reply's copy.
func BenchmarkCall(b *testing.B) {
	srv := NewServer()
	reply := make([]byte, 64)
	srv.Handle("reply", func([]byte) ([]byte, error) { return reply, nil })
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	body := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("reply", body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallConcurrentOnePeer is BenchmarkCall from two goroutines on
// one pool to one peer, as a benchmark deployment's two clients reach one
// primary: each call takes an idle lane, so the two do not queue on one
// connection's reader and flusher. make bench requires at most 1 allocs/op.
func BenchmarkCallConcurrentOnePeer(b *testing.B) {
	srv := NewServer()
	reply := make([]byte, 64)
	srv.Handle("reply", func([]byte) ([]byte, error) { return reply, nil })
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	p := NewPool(nil)
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			body := make([]byte, 64)
			for range n {
				if _, err := p.Call(addr, "reply", body); err != nil {
					b.Error(err)
					return
				}
			}
		}(b.N/2 + g*(b.N%2))
	}
	wg.Wait()
}

// BenchmarkCallDeepHandler is BenchmarkCall with a handler that uses about
// 32 KB of stack before it replies, as a guest invocation does on its way
// to the VM's call depth: a handler goroutine that starts on a fresh stack
// regrows it, a copy at each doubling, on every call.
func BenchmarkCallDeepHandler(b *testing.B) {
	srv := NewServer()
	reply := make([]byte, 64)
	srv.Handle("deep", func([]byte) ([]byte, error) {
		deepSink = deepStack(32)
		return reply, nil
	})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	body := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("deep", body); err != nil {
			b.Fatal(err)
		}
	}
}

var deepSink byte

// deepStack recurses depth frames of about 1 KB of stack each.
//
//go:noinline
func deepStack(depth int) byte {
	var pad [1 << 10]byte
	pad[depth] = byte(depth)
	if depth == 0 {
		return pad[0]
	}
	return deepStack(depth-1) + pad[depth]
}

// TestPooledFrameCarriesOnlyItsRequest: a request's handler goroutine takes
// its handler and connection from the pooled frame it was read into, and
// frames move between servers and connections through one pool. Two
// servers with disjoint methods, two connections to each and eight callers
// keep frames recycling while others are in flight (every fourth handler
// sleeps); each reply must come from the handler named by its own request,
// on its own connection. Run under -race it also checks that a frame's
// fields are handed from one request to the next without a data race.
func TestPooledFrameCarriesOnlyItsRequest(t *testing.T) {
	var clients []*Client
	for _, srvName := range []string{"A", "B"} {
		srv := NewServer()
		for m := 0; m < 4; m++ {
			method := fmt.Sprintf("%s%d", srvName, m)
			slow := m == 3
			srv.Handle(method, func(body []byte) ([]byte, error) {
				if slow {
					time.Sleep(50 * time.Microsecond)
				}
				return append([]byte(method+":"), body...), nil
			})
		}
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		for i := 0; i < 2; i++ {
			c, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			clients = append(clients, c)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				ci := (g + i) % len(clients)
				method := fmt.Sprintf("%c%d", "AB"[ci/2], (g*7+i)%4)
				body := fmt.Sprintf("caller %d call %d", g, i)
				got, err := clients[ci].Call(method, []byte(body))
				if want := method + ":" + body; err != nil || string(got) != want {
					t.Errorf("%s on connection %d = %q, %v; want %q", method, ci, got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
