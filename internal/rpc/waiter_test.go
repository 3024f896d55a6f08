package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// claim takes call id's waiter off the connection, as the reader does when
// the call's reply arrives, as soon as the call is in flight.
func claim(c *Client, id uint64) *waiter {
	for {
		c.mu.Lock()
		w := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if w != nil {
			return w
		}
		runtime.Gosched()
	}
}

// awaitPending returns once call id is in flight.
func awaitPending(c *Client, id uint64) {
	for {
		c.mu.Lock()
		w := c.pending[id]
		c.mu.Unlock()
		if w != nil {
			return
		}
		runtime.Gosched()
	}
}

// TestLateReplyNeverReachesAnotherCall pins the waiter's recycling rule on
// one connection with a 20 ms timeout. Each round, call A's handler sleeps
// past the timeout, and A's waiter is claimed the moment A is in flight —
// the race in which the reader takes a reply just before the caller's timer
// fires — and the late reply is delivered into it only once call B, whose
// reply is distinct, is in flight. A must time out and B must get B's
// bytes: a timed-out waiter recycled into B would hand B A's reply. B's
// deadline plays no part in that, so B waits up to a minute: a busy machine
// may take longer than 20 ms to run B's handler after the late delivery.
func TestLateReplyNeverReachesAnotherCall(t *testing.T) {
	s := NewServer()
	replyA, replyB := []byte("reply of A"), []byte("reply of B")
	s.Handle("a", func([]byte) ([]byte, error) {
		time.Sleep(30 * time.Millisecond)
		return replyA, nil
	})
	gate := make(chan struct{})
	s.Handle("b", func([]byte) ([]byte, error) {
		<-gate
		return replyB, nil
	})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr, &ClientOptions{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for round := 0; round < 200; round++ {
		c.mu.Lock()
		idA, idB := c.nextID+1, c.nextID+2
		c.mu.Unlock()
		claimed := make(chan *waiter, 1)
		go func() { claimed <- claim(c, idA) }()
		// Only the calling goroutine reads the timeout.
		c.opts.Timeout = 20 * time.Millisecond
		if _, err := c.Call("a", nil); !errors.Is(err, ErrTimeout) {
			t.Fatalf("round %d: call A = %v, want ErrTimeout", round, err)
		}
		late := <-claimed
		go func() {
			awaitPending(c, idB)
			late.deliver(replyA, nil)
			gate <- struct{}{}
		}()
		c.opts.Timeout = time.Minute
		if got, err := c.Call("b", nil); err != nil || !bytes.Equal(got, replyB) {
			t.Fatalf("round %d: call B = %q, %v; want %q", round, got, err, replyB)
		}
	}
}

// TestServerCloseFailsEveryCall closes the server under 32 calls in flight
// on one connection: every call returns ErrClosed, none of them a reply.
func TestServerCloseFailsEveryCall(t *testing.T) {
	const calls = 32
	s := NewServer()
	gate := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(calls)
	s.Handle("held", func(body []byte) ([]byte, error) {
		entered.Done()
		<-gate
		return body, nil
	})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			got, err := c.Call("held", []byte{byte(i)})
			if got != nil {
				err = fmt.Errorf("call %d got a reply %x", i, got)
			}
			errs <- err
		}(i)
	}
	entered.Wait()
	closed := make(chan struct{})
	go func() {
		s.Close() // returns once the held handlers do
		close(closed)
	}()
	for i := 0; i < calls; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("in-flight call: %v, want ErrClosed", err)
		}
	}
	close(gate)
	<-closed
}
