package rpc

import (
	"runtime"
	"testing"
	"time"
)

// laneServer serves "echo" and "hold", which signals entered and then
// waits for release to close.
func laneServer(t *testing.T) (s *Server, addr string, entered, release chan struct{}) {
	t.Helper()
	entered, release = make(chan struct{}, 64), make(chan struct{})
	s = NewServer()
	s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	s.Handle("hold", func(b []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return b, nil
	})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr, entered, release
}

// accepted is how many connections the server has accepted and still holds
// (the lane tests close none).
func accepted(s *Server) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.conns)
}

// withProcs runs the rest of the test at GOMAXPROCS n; a pool reads it when
// it is made.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// holdCalls starts n "hold" calls through p and waits until the server runs
// every one of them; the returned func releases them and checks each
// succeeded.
func holdCalls(t *testing.T, p *Pool, addr string, n int, entered, release chan struct{}) (finish func()) {
	t.Helper()
	errs := make(chan error, n)
	for range n {
		go func() {
			_, err := p.Call(addr, "hold", []byte("h"))
			errs <- err
		}()
	}
	for range n {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("held calls never reached the handler")
		}
	}
	return func() {
		close(release)
		for range n {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
}

// TestPoolSequentialCallsShareOneLane: a caller that waits for each reply
// before the next call finds the first lane idle every time, so the server
// accepts one connection.
func TestPoolSequentialCallsShareOneLane(t *testing.T) {
	withProcs(t, 4)
	s, addr, _, _ := laneServer(t)
	p := NewPool(nil)
	defer p.Close()
	for range 50 {
		if _, err := p.Call(addr, "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := accepted(s); n != 1 {
		t.Fatalf("50 sequential calls: server accepted %d connections, want 1", n)
	}
}

// TestPoolConcurrentCallsOpenSecondLane: with a call in flight on the only
// lane, the next call dials a second connection instead of queuing behind
// it.
func TestPoolConcurrentCallsOpenSecondLane(t *testing.T) {
	withProcs(t, 4)
	s, addr, entered, release := laneServer(t)
	p := NewPool(nil)
	defer p.Close()
	finish := holdCalls(t, p, addr, 2, entered, release)
	if n := accepted(s); n != 2 {
		t.Errorf("two held calls: server accepted %d connections, want 2", n)
	}
	finish()
	// Both lanes are idle again: the next calls reuse them.
	if _, err := p.Call(addr, "echo", nil); err != nil {
		t.Fatal(err)
	}
	if n := accepted(s); n != 2 {
		t.Fatalf("a call after the held ones dialed again: %d connections", n)
	}
}

// TestPoolLanesBoundedByGOMAXPROCS: more calls held at once than
// GOMAXPROCS share the pool's GOMAXPROCS lanes, and every one still runs.
// Calls that find no lane at once may each dial, but a dial that finds the
// lanes filled meanwhile is closed at once: the server keeps GOMAXPROCS.
func TestPoolLanesBoundedByGOMAXPROCS(t *testing.T) {
	withProcs(t, 2)
	s, addr, entered, release := laneServer(t)
	p := NewPool(nil)
	defer p.Close()
	finish := holdCalls(t, p, addr, 7, entered, release)
	for deadline := time.Now().Add(2 * time.Second); accepted(s) != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("7 held calls at GOMAXPROCS 2: the server holds %d connections, want 2", accepted(s))
		}
	}
	p.mu.Lock()
	lanes := len(p.lanes[addr])
	p.mu.Unlock()
	if lanes != 2 {
		t.Errorf("pool holds %d lanes, want 2", lanes)
	}
	finish()
}
