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

// newPlane builds a plane publishing into a registry of its own, which the
// test reads back through counter and depth — the plane's one surface.
func newPlane(opts Options) (*Plane, *telemetry.Registry) {
	opts.Metrics = telemetry.NewRegistry()
	return New(opts), opts.Metrics
}

func counter(reg *telemetry.Registry, name string) uint64 {
	return reg.Snapshot().Counters["admission."+name]
}

func depth(reg *telemetry.Registry) int64 {
	return reg.Snapshot().Gauges["admission.queue_depth"]
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
	p, reg := newPlane(Options{Workers: 1, QueueLimit: 8, Deadline: time.Second})
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
	waitFor(t, "waiter to queue", func() bool { return depth(reg) == 1 })
	rel()
	if err := <-granted; err != nil {
		t.Fatalf("queued admit after release: %v", err)
	}
	if a, q := counter(reg, "admitted"), counter(reg, "queued"); a != 2 || q != 1 {
		t.Fatalf("admitted=%d queued=%d, want 2 and 1", a, q)
	}
	// Both slots released; a fresh admit goes straight through.
	rel3, err := p.Admit()
	if err != nil {
		t.Fatalf("admit after drain: %v", err)
	}
	rel3()
}

func TestDeadlineShedWhileWaiting(t *testing.T) {
	p, reg := newPlane(Options{Workers: 1, QueueLimit: 8, Deadline: 5 * time.Millisecond})
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
	if n := counter(reg, "shed_deadline"); n != 1 {
		t.Fatalf("shed_deadline=%d, want 1", n)
	}
	if d := depth(reg); d != 0 {
		t.Fatalf("queue depth %d after shed, want 0", d)
	}
}

func TestDrainShedsExpiredWaiters(t *testing.T) {
	// The waiter's own timer is held far away (1h); only the drain path,
	// driven by a manual clock, decides. A waiter whose wait already
	// exceeds the deadline must be shed at drain time, not granted.
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p, reg := newPlane(Options{Workers: 1, QueueLimit: 8, Deadline: time.Hour, Now: clk.now})
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
	waitFor(t, "waiter to queue", func() bool { return depth(reg) == 1 })
	clk.advance(2 * time.Hour) // the queued request is now long past its deadline
	rel()
	err = <-res
	if err == nil || !IsOverload(err) {
		t.Fatalf("expired waiter granted a slot (err=%v)", err)
	}
	if n := counter(reg, "shed_deadline"); n != 1 {
		t.Fatalf("shed_deadline=%d, want 1", n)
	}
	// The slot was freed, not leaked: an immediate admit succeeds.
	rel3, err := p.Admit()
	if err != nil {
		t.Fatalf("admit after drain shed: %v", err)
	}
	rel3()
}

func TestQueueFullShedsImmediately(t *testing.T) {
	p, reg := newPlane(Options{Workers: 1, QueueLimit: 1, Deadline: time.Second})
	rel, err := p.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	defer rel()
	go p.Admit() //nolint:errcheck // occupies the single queue slot
	waitFor(t, "queue to fill", func() bool { return depth(reg) == 1 })
	if _, err := p.Admit(); err == nil || !IsOverload(err) {
		t.Fatalf("expected queue-full shed, got %v", err)
	}
	if n := counter(reg, "shed_full"); n != 1 {
		t.Fatalf("shed_full=%d, want 1", n)
	}
}

func TestCloseShedsWaiters(t *testing.T) {
	p, reg := newPlane(Options{Workers: 1, QueueLimit: 8, Deadline: time.Minute})
	rel, err := p.Admit()
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := p.Admit()
		res <- err
	}()
	waitFor(t, "waiter to queue", func() bool { return depth(reg) == 1 })
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
// sheds, drain handoffs and registry snapshots all interleave. The invariants —
// never more grants outstanding than slots, every grant released, accounting
// consistent, no deadlock — are what the race detector and the counters check.
func TestConcurrentEnqueueShedDrain(t *testing.T) {
	p, reg := newPlane(Options{Workers: 4, QueueLimit: 32, Deadline: 2 * time.Millisecond})
	const goroutines = 16
	const perG = 200
	var admitted, shed atomic.Uint64
	var holding, peak atomic.Int32
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
				for h, pk := holding.Add(1), peak.Load(); h > pk && !peak.CompareAndSwap(pk, h); pk = peak.Load() {
				}
				if i%8 == 0 {
					time.Sleep(100 * time.Microsecond) // hold the slot: force queueing
				}
				holding.Add(-1)
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
				reg.Snapshot()
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
	if pk := peak.Load(); pk > 4 {
		t.Fatalf("%d grants outstanding at once through 4 slots", pk)
	}
	if n := counter(reg, "admitted"); n != admitted.Load() {
		t.Fatalf("plane admitted=%d, callers saw %d", n, admitted.Load())
	}
	if dl, full := counter(reg, "shed_deadline"), counter(reg, "shed_full"); dl+full != shed.Load() {
		t.Fatalf("plane sheds=%d+%d, callers saw %d", dl, full, shed.Load())
	}
	p.mu.Lock()
	active := p.active
	p.mu.Unlock()
	if active != 0 || depth(reg) != 0 {
		t.Fatalf("leaked state after drain: active=%d depth=%d", active, depth(reg))
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
