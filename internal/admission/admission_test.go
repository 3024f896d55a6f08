package admission

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/telemetry"
)

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// fakeClock is a mutex-guarded manual clock for deterministic shed tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestOverloadErrorRoundTrip(t *testing.T) {
	err := Overloaded("queue full")
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("typed overload error should match ErrOverload")
	}
	if !IsOverload(err) {
		t.Fatalf("IsOverload(local) = false")
	}
	// Across RPC the error arrives as a flattened string, possibly wrapped
	// again by a retry loop; the prefix must still identify it.
	remote := fmt.Errorf("cluster: obj.invoke failed after retries: %w",
		errors.New("rpc: remote: "+err.Error()))
	if !IsOverload(remote) {
		t.Fatalf("IsOverload(remote string form) = false")
	}
	if IsOverload(errors.New("not-responsible:127.0.0.1:7000")) {
		t.Fatalf("routing rejection misclassified as overload")
	}
	if IsOverload(nil) {
		t.Fatalf("IsOverload(nil) = true")
	}
}

func TestAdmitGrantAndHandoff(t *testing.T) {
	p := New(Options{Workers: 1, QueueLimit: 8, Deadline: time.Second})
	rel, err := p.Admit()
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	granted := make(chan error, 1)
	go func() {
		rel2, err := p.Admit()
		if err == nil {
			rel2()
		}
		granted <- err
	}()
	waitFor(t, "waiter to queue", func() bool { return p.Status().QueueDepth == 1 })
	rel()
	if err := <-granted; err != nil {
		t.Fatalf("queued admit after release: %v", err)
	}
	st := p.Status()
	if st.Admitted != 2 || st.Queued != 1 {
		t.Fatalf("admitted=%d queued=%d, want 2 and 1", st.Admitted, st.Queued)
	}
	// Both slots released; a fresh admit goes straight through.
	rel3, err := p.Admit()
	if err != nil {
		t.Fatalf("admit after drain: %v", err)
	}
	rel3()
}

func TestDeadlineShedWhileWaiting(t *testing.T) {
	p := New(Options{Workers: 1, QueueLimit: 8, Deadline: 5 * time.Millisecond})
	rel, err := p.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	defer rel()
	_, err = p.Admit() // queues behind the held slot, times out
	if err == nil {
		t.Fatalf("expected deadline shed")
	}
	if !IsOverload(err) {
		t.Fatalf("shed error not an overload: %v", err)
	}
	if st := p.Status(); st.ShedDeadline != 1 {
		t.Fatalf("shed_deadline=%d, want 1", st.ShedDeadline)
	}
	if st := p.Status(); st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after shed, want 0", st.QueueDepth)
	}
}

func TestDrainShedsExpiredWaiters(t *testing.T) {
	// The waiter's own timer is held far away (1h); only the drain path,
	// driven by a manual clock, decides. A waiter whose wait already
	// exceeds the deadline must be shed at drain time, not granted.
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := New(Options{Workers: 1, QueueLimit: 8, Deadline: time.Hour, Now: clk.now})
	rel, err := p.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	res := make(chan error, 1)
	go func() {
		rel2, err := p.Admit()
		if err == nil {
			rel2()
		}
		res <- err
	}()
	waitFor(t, "waiter to queue", func() bool { return p.Status().QueueDepth == 1 })
	clk.advance(2 * time.Hour) // the queued request is now long past its deadline
	rel()
	err = <-res
	if err == nil || !IsOverload(err) {
		t.Fatalf("expired waiter granted a slot (err=%v)", err)
	}
	if st := p.Status(); st.ShedDeadline != 1 {
		t.Fatalf("shed_deadline=%d, want 1", st.ShedDeadline)
	}
	// The slot was freed, not leaked: an immediate admit succeeds.
	rel3, err := p.Admit()
	if err != nil {
		t.Fatalf("admit after drain shed: %v", err)
	}
	rel3()
}

func TestQueueFullShedsImmediately(t *testing.T) {
	p := New(Options{Workers: 1, QueueLimit: 1, Deadline: time.Second})
	rel, err := p.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	defer rel()
	go p.Admit() //nolint:errcheck // occupies the single queue slot
	waitFor(t, "queue to fill", func() bool { return p.Status().QueueDepth == 1 })
	if _, err := p.Admit(); err == nil || !IsOverload(err) {
		t.Fatalf("expected queue-full shed, got %v", err)
	}
	if st := p.Status(); st.ShedFull != 1 {
		t.Fatalf("shed_full=%d, want 1", st.ShedFull)
	}
}

func TestLIFODrainsNewestFirst(t *testing.T) {
	p := New(Options{Workers: 1, QueueLimit: 8, Deadline: 5 * time.Second, LIFO: true})
	rel, err := p.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	order := make(chan string, 2)
	enqueue := func(name string) chan func() {
		got := make(chan func(), 1)
		go func() {
			r, err := p.Admit()
			if err != nil {
				t.Errorf("admit %s: %v", name, err)
				got <- func() {}
				return
			}
			order <- name
			got <- r
		}()
		return got
	}
	ra := enqueue("A")
	waitFor(t, "A queued", func() bool { return p.Status().QueueDepth == 1 })
	rb := enqueue("B")
	waitFor(t, "B queued", func() bool { return p.Status().QueueDepth == 2 })
	rel()
	if first := <-order; first != "B" {
		t.Fatalf("LIFO drained %q first, want B", first)
	}
	(<-rb)()
	if second := <-order; second != "A" {
		t.Fatalf("second grant %q, want A", second)
	}
	(<-ra)()
}

func TestEWMAObserve(t *testing.T) {
	reg := telemetry.NewRegistry()
	ewma := func() time.Duration {
		return time.Duration(reg.Snapshot().Gauges["admission.ewma_latency_us"]) * time.Microsecond
	}
	p := New(Options{Workers: 1, Metrics: reg})
	p.Observe(1 * time.Millisecond)
	if got := ewma(); got != 1*time.Millisecond {
		t.Fatalf("first observation should seed the EWMA, got %v", got)
	}
	for i := 0; i < 100; i++ {
		p.Observe(3 * time.Millisecond)
	}
	got := ewma()
	if got < 2500*time.Microsecond || got > 3100*time.Microsecond {
		t.Fatalf("EWMA %v did not converge toward 3ms", got)
	}
}

func TestCloseShedsWaiters(t *testing.T) {
	p := New(Options{Workers: 1, QueueLimit: 8, Deadline: time.Minute})
	rel, err := p.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := p.Admit()
		res <- err
	}()
	waitFor(t, "waiter to queue", func() bool { return p.Status().QueueDepth == 1 })
	p.Close()
	if err := <-res; err == nil || !IsOverload(err) {
		t.Fatalf("close should shed the waiter with an overload error, got %v", err)
	}
	if _, err := p.Admit(); err == nil {
		t.Fatalf("admit after close should be rejected")
	}
	rel()
}

// TestConcurrentEnqueueShedDrain is the -race workout: admits, deadline
// sheds, drain handoffs and status reads all interleave. The invariants —
// every grant released, accounting consistent, no deadlock — are what the
// race detector and the final counters check.
func TestConcurrentEnqueueShedDrain(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(Options{Workers: 4, QueueLimit: 32, Deadline: 2 * time.Millisecond,
		Metrics: reg})
	const goroutines = 16
	const perG = 200
	var admitted, shed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rel, err := p.Admit()
				if err != nil {
					if !IsOverload(err) {
						t.Errorf("non-overload rejection: %v", err)
						return
					}
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				if i%8 == 0 {
					time.Sleep(100 * time.Microsecond) // hold the slot: force queueing
				}
				p.Observe(time.Duration(i%50) * time.Microsecond)
				rel()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				p.Status()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(done)

	if admitted.Load()+shed.Load() != goroutines*perG {
		t.Fatalf("admitted %d + shed %d != %d issued",
			admitted.Load(), shed.Load(), goroutines*perG)
	}
	st := p.Status()
	if st.Admitted != admitted.Load() {
		t.Fatalf("plane admitted=%d, callers saw %d", st.Admitted, admitted.Load())
	}
	if st.ShedDeadline+st.ShedFull != shed.Load() {
		t.Fatalf("plane sheds=%d+%d, callers saw %d",
			st.ShedDeadline, st.ShedFull, shed.Load())
	}
	if st.Active != 0 || st.QueueDepth != 0 {
		t.Fatalf("leaked state after drain: active=%d depth=%d", st.Active, st.QueueDepth)
	}
	// All slots free again: a burst of Workers admits succeeds instantly.
	for i := 0; i < 4; i++ {
		rel, err := p.Admit()
		if err != nil {
			t.Fatalf("post-drain admit %d: %v", i, err)
		}
		defer rel()
	}
}
