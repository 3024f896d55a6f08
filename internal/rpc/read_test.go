package rpc

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// arrivals is an io.Reader over bytes as the network delivered them: each
// Read returns at most what is left of the current arrival, and counts
// itself.
type arrivals struct {
	chunks [][]byte
	reads  int
}

func (a *arrivals) Read(p []byte) (int, error) {
	a.reads++
	if len(a.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, a.chunks[0])
	if a.chunks[0] = a.chunks[0][n:]; len(a.chunks[0]) == 0 {
		a.chunks = a.chunks[1:]
	}
	return n, nil
}

// requestFrame encodes a request carrying body as a length-prefixed frame.
func requestFrame(id uint64, method, body string) []byte {
	m := &message{kind: msgRequest, id: id, method: method, body: []byte(body)}
	return appendFrame(nil, m)
}

// appendFrame appends m to dst as one length-prefixed frame.
func appendFrame(dst []byte, m *message) []byte {
	payload := m.encode(nil)
	dst = append(dst, byte(len(payload)>>24), byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload)))
	return append(dst, payload...)
}

// TestWholeFrameTakesOneRead: a frame that arrived whole takes one Read,
// length prefix and body together, once the frame's buffer has grown to
// it; several frames that arrived in one piece take one Read between them;
// and a frame delivered a byte at a time still decodes.
func TestWholeFrameTakesOneRead(t *testing.T) {
	frame := frameBytes(4 << 10)
	f := new(inFrame)
	src := &arrivals{chunks: [][]byte{frame, frame}}
	if err := f.read(src); err != nil { // sizes the buffer
		t.Fatal(err)
	}
	src.reads = 0
	if err := f.read(src); err != nil {
		t.Fatal(err)
	}
	if src.reads != 1 || string(f.name) != "repl.applyBatch" || len(f.msg.body) != 4<<10 {
		t.Fatalf("a whole frame took %d Reads and decoded %q with a %d-byte body; want 1 Read",
			src.reads, f.name, len(f.msg.body))
	}

	var three []byte
	for id := uint64(1); id <= 3; id++ {
		three = append(three, requestFrame(id, "m", fmt.Sprint("body ", id))...)
	}
	for _, tc := range []struct {
		name      string
		chunks    [][]byte
		wantReads int
	}{
		{"three frames in one arrival", [][]byte{three}, 1},
		{"a byte at a time", splitBytes(three), len(three)},
	} {
		f, src := new(inFrame), &arrivals{chunks: tc.chunks}
		for id := uint64(1); id <= 3; id++ {
			if err := f.read(src); err != nil {
				t.Fatalf("%s: frame %d: %v", tc.name, id, err)
			}
			if want := fmt.Sprint("body ", id); f.msg.id != id || string(f.msg.body) != want {
				t.Fatalf("%s: frame %d decoded as id %d body %q", tc.name, id, f.msg.id, f.msg.body)
			}
		}
		if src.reads != tc.wantReads {
			t.Fatalf("%s: %d Reads, want %d", tc.name, src.reads, tc.wantReads)
		}
		if err := f.read(src); err != io.EOF {
			t.Fatalf("%s: read past the last frame = %v, want io.EOF", tc.name, err)
		}
	}
}

func splitBytes(b []byte) [][]byte {
	var out [][]byte
	for i := range b {
		out = append(out, b[i:i+1])
	}
	return out
}

// countingConn counts the Reads that returned data on a connection and
// can cap each at perRead bytes.
type countingConn struct {
	net.Conn
	perRead int // 0: no cap
	reads   atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	if c.perRead > 0 && len(p) > c.perRead {
		p = p[:c.perRead]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// readDeliveries are the ways the tests below deliver n frames to a loop:
// each whole in a Write of its own, all in one Write, or a byte per Read.
var readDeliveries = []struct {
	name    string
	batched bool
	perRead int
}{{"whole", false, 0}, {"batched", true, 0}, {"byte at a time", true, 1}}

// TestServerLoopDispatchesEachRequestOnce drives Server.serveConn over a
// pipe: every request is dispatched exactly once and answered once, however
// the frames arrive, and a frame that arrived whole takes one Read.
func TestServerLoopDispatchesEachRequestOnce(t *testing.T) {
	const n = 8
	for _, d := range readDeliveries {
		t.Run(d.name, func(t *testing.T) {
			var mu sync.Mutex
			runs := make(map[string]int)
			s := NewServer()
			s.Handle("echo", func(body []byte) ([]byte, error) {
				mu.Lock()
				runs[string(body)]++
				mu.Unlock()
				return body, nil
			})
			near, far := net.Pipe()
			conn := &countingConn{Conn: far, perRead: d.perRead}
			s.wg.Add(1)
			go s.serveConn(conn)
			defer s.Close()
			defer near.Close()

			replies := new(inFrame)
			answered := make(map[uint64]string)
			await := func() {
				near.SetReadDeadline(time.Now().Add(5 * time.Second))
				if err := replies.read(near); err != nil {
					t.Fatalf("reading a reply: %v", err)
				}
				if _, dup := answered[replies.msg.id]; dup {
					t.Fatalf("request %d answered twice", replies.msg.id)
				}
				answered[replies.msg.id] = string(replies.msg.body)
			}
			var batch []byte
			for id := uint64(1); id <= n; id++ {
				frame := requestFrame(id, "echo", fmt.Sprint("request ", id))
				if d.batched {
					batch = append(batch, frame...)
					continue
				}
				if _, err := near.Write(frame); err != nil {
					t.Fatal(err)
				}
				await()
				if got := conn.reads.Load(); got != int64(id) {
					t.Fatalf("%d whole frames took %d Reads, want one each", id, got)
				}
			}
			if d.batched {
				go near.Write(batch) //nolint:errcheck // a failed write shows as missing replies
				for i := 0; i < n; i++ {
					await()
				}
			}
			for id := uint64(1); id <= n; id++ {
				body := fmt.Sprint("request ", id)
				if answered[id] != body || runs[body] != 1 {
					t.Fatalf("request %d: answered %q, handler ran %d times", id, answered[id], runs[body])
				}
			}
		})
	}
}

// TestClientLoopDeliversEachReplyOnce drives Client.readLoop over a pipe
// whose far end answers like a server: every call gets its own reply exactly
// once, however the replies arrive, and a reply that arrived whole takes
// one Read.
func TestClientLoopDeliversEachReplyOnce(t *testing.T) {
	const n = 8
	for _, d := range readDeliveries {
		t.Run(d.name, func(t *testing.T) {
			near, far := net.Pipe()
			conn := &countingConn{Conn: near, perRead: d.perRead}
			c := newClient(conn, "pipe", ClientOptions{Timeout: 5 * time.Second}, "", newClientMetrics(nil))
			defer c.Close()
			defer far.Close()

			// The far end reads each request and answers it, either at
			// once or, batched, all n answers in one Write.
			served := make(chan error, 1)
			go func() {
				req := new(inFrame)
				var batch []byte
				for i := 0; i < n; i++ {
					if err := req.read(far); err != nil {
						served <- err
						return
					}
					reply := appendFrame(nil, &message{kind: msgResponse, id: req.msg.id, body: append([]byte("reply to "), req.msg.body...)})
					if !d.batched {
						if _, err := far.Write(reply); err != nil {
							served <- err
							return
						}
						continue
					}
					batch = append(batch, reply...)
				}
				var err error
				if d.batched {
					_, err = far.Write(batch)
				}
				served <- err
			}()

			call := func(i int) error {
				body := fmt.Sprint("call ", i)
				got, err := c.Call("m", []byte(body))
				if err != nil || string(got) != "reply to "+body {
					return fmt.Errorf("call %d = %q, %v", i, got, err)
				}
				return nil
			}
			if !d.batched {
				for i := 1; i <= n; i++ {
					if err := call(i); err != nil {
						t.Fatal(err)
					}
					if got := conn.reads.Load(); d.perRead == 0 && got != int64(i) {
						t.Fatalf("%d whole replies took %d Reads, want one each", i, got)
					}
				}
			} else {
				errs := make(chan error, n)
				for i := 1; i <= n; i++ {
					go func(i int) { errs <- call(i) }(i)
				}
				for i := 0; i < n; i++ {
					if err := <-errs; err != nil {
						t.Error(err)
					}
				}
			}
			if err := <-served; err != nil {
				t.Fatalf("far end: %v", err)
			}
		})
	}
}
