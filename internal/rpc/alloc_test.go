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
// with pooled frame buffers and a body that aliases the pooled buffer
// (no unconditional copy), steady state should allocate only the message
// header object per frame.
func BenchmarkReadFrame(b *testing.B) {
	frame := frameBytes(4 << 10)
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		m, err := readFrame(r)
		if err != nil {
			b.Fatal(err)
		}
		m.release()
	}
}

// TestReadFrameAllocBound guards the decodeMessage zero-copy change: the
// pooled receive path must stay at a couple of allocations per frame (the
// message struct; never a body copy, which would scale with frame size).
func TestReadFrameAllocBound(t *testing.T) {
	frame := frameBytes(64 << 10)
	r := bytes.NewReader(frame)
	// Warm the frame-buffer pool.
	for i := 0; i < 8; i++ {
		r.Reset(frame)
		m, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		m.release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		m, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		m.release()
	})
	// A 64 KiB body copy would show up as a large per-run allocation; the
	// zero-copy path allocates only small fixed-size objects.
	if allocs > 3 {
		t.Fatalf("readFrame allocs/op = %.1f, want <= 3 (body must alias the pooled buffer)", allocs)
	}
}

// TestCallAllocBound guards one round trip on a warm connection, client
// and server side together: the response channel and request message at the
// caller, the frame's message and its handler goroutine at the server, the
// response message on the way back — and no timer, which calls take from a
// pool.
func TestCallAllocBound(t *testing.T) {
	srv := NewServer()
	srv.Handle("noop", func([]byte) ([]byte, error) { return nil, nil })
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
	call := func() {
		if _, err := c.Call("noop", body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		call()
	}
	if allocs := testing.AllocsPerRun(300, call); allocs > 11 && !raceEnabled {
		t.Fatalf("one call allocates %.1f objects, want <= 11", allocs)
	}
}
