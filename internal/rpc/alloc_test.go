package rpc

import (
	"bytes"
	"testing"
)

// frameBytes encodes one request message as a length-prefixed wire frame.
func frameBytes(bodyLen int) []byte {
	m := &message{kind: msgRequest, id: 7, method: "repl.applyBatch", body: make([]byte, bodyLen)}
	payload := m.encode(nil)
	frame := make([]byte, 4+len(payload))
	frame[0] = byte(len(payload) >> 24)
	frame[1] = byte(len(payload) >> 16)
	frame[2] = byte(len(payload) >> 8)
	frame[3] = byte(len(payload))
	copy(frame[4:], payload)
	return frame
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
// are pooled, the client's reader keeps its frame, and both messages live on
// stacks, so what is left is the server's handler goroutine and, for a
// non-empty reply, the caller's own copy of it.
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
	}{{"noop", 1}, {"reply", 2}} {
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
// requires it to report at most 2 allocs/op.
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
