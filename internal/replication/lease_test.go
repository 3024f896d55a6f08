package replication

import (
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// fakeClock is a hand-advanced clock for lease expiry tests: no sleeps,
// no flakiness from scheduler stalls.
type fakeClock struct {
	t time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) stamp() uint64           { return uint64(c.t.UnixNano()) }
func (c *fakeClock) stampAgo(d time.Duration) uint64 {
	return uint64(c.t.Add(-d).UnixNano())
}

const testTTL = 100 * time.Millisecond

func testHolder(epoch *uint64) (*LeaseHolder, *fakeClock) {
	clk := newFakeClock()
	h := NewLeaseHolder(func() uint64 { return *epoch }, clk.now, nil)
	return h, clk
}

func grant(h *LeaseHolder, clk *fakeClock, epoch uint64) {
	h.Renew(leaseMsg{epoch: epoch, ttlUs: uint64(testTTL / time.Microsecond), grantNs: clk.stamp()})
}

func TestLeaseGrantAndExpiry(t *testing.T) {
	epoch := uint64(3)
	h, clk := testHolder(&epoch)
	if h.Valid() {
		t.Fatal("holder valid before any grant")
	}
	grant(h, clk, 3)
	if !h.Valid() {
		t.Fatal("fresh grant not valid")
	}
	// The backup honors 3/4 of the TTL measured from the grant stamp.
	clk.advance(testTTL * 3 / 4)
	clk.advance(time.Millisecond)
	if h.Valid() {
		t.Fatal("lease survived past 3/4 TTL")
	}
	if h.Held() {
		t.Fatal("expired lease still held (expiry check must revoke)")
	}
	// A new grant restores validity.
	grant(h, clk, 3)
	if !h.Valid() {
		t.Fatal("re-grant after expiry not valid")
	}
}

func TestLeaseDelayedGrantDoesNotExtend(t *testing.T) {
	// The delivery-delay hazard: a grant that sat in flight must arrive
	// with correspondingly less validity, measured from the SENDER's
	// stamp. Otherwise a final in-flight grant could extend a lease past
	// the primary's post-reconfiguration write-ack barrier.
	epoch := uint64(1)
	h, clk := testHolder(&epoch)
	ttlUs := uint64(testTTL / time.Microsecond)

	// Stamped half a TTL ago: only a quarter TTL of validity remains.
	h.Renew(leaseMsg{epoch: 1, ttlUs: ttlUs, grantNs: clk.stampAgo(testTTL / 2)})
	if !h.Valid() {
		t.Fatal("grant with remaining validity rejected")
	}
	clk.advance(testTTL/4 + time.Millisecond)
	if h.Valid() {
		t.Fatal("delayed grant honored from receipt time, not grant stamp")
	}

	// Stamped a full 3/4 TTL ago: expired in flight, must be ignored.
	h.Renew(leaseMsg{epoch: 1, ttlUs: ttlUs, grantNs: clk.stampAgo(testTTL * 3 / 4)})
	if h.Valid() || h.Held() {
		t.Fatal("grant that expired in flight was honored")
	}
}

func TestLeaseFutureStampClamped(t *testing.T) {
	// A sender clock running ahead must not widen the window beyond
	// 3/4 TTL from the local clock.
	epoch := uint64(1)
	h, clk := testHolder(&epoch)
	h.Renew(leaseMsg{
		epoch:   1,
		ttlUs:   uint64(testTTL / time.Microsecond),
		grantNs: uint64(clk.t.Add(testTTL).UnixNano()),
	})
	if !h.Valid() {
		t.Fatal("future-stamped grant rejected outright")
	}
	clk.advance(testTTL*3/4 + time.Millisecond)
	if h.Valid() {
		t.Fatal("future stamp extended the lease beyond 3/4 TTL of local time")
	}
}

func TestLeaseLateRenewalCannotShorten(t *testing.T) {
	// A renewal that arrives out of order with an older stamp must not
	// pull an existing fresher expiry backwards.
	epoch := uint64(1)
	h, clk := testHolder(&epoch)
	grant(h, clk, 1)
	ttlUs := uint64(testTTL / time.Microsecond)
	h.Renew(leaseMsg{epoch: 1, ttlUs: ttlUs, grantNs: clk.stampAgo(testTTL / 2)})
	clk.advance(testTTL / 2)
	if !h.Valid() {
		t.Fatal("stale renewal shortened a fresher lease")
	}
}

func TestLeaseEpochFence(t *testing.T) {
	epoch := uint64(5)
	h, clk := testHolder(&epoch)

	// Grants from other configurations are ignored entirely.
	grant(h, clk, 4)
	if h.Held() {
		t.Fatal("grant from a deposed epoch accepted")
	}
	grant(h, clk, 6)
	if h.Held() {
		t.Fatal("grant from a not-yet-seen epoch accepted")
	}

	// A valid lease dies the moment the local epoch moves on.
	grant(h, clk, 5)
	if !h.Valid() {
		t.Fatal("matching-epoch grant not valid")
	}
	epoch = 6
	if h.Valid() {
		t.Fatal("lease survived a local reconfiguration")
	}
	if h.Held() {
		t.Fatal("epoch-fenced lease not revoked")
	}
}

func TestLeaseExplicitRevoke(t *testing.T) {
	epoch := uint64(1)
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	h := NewLeaseHolder(func() uint64 { return epoch }, clk.now, reg)
	grant(h, clk, 1)
	if got := reg.Snapshot().Gauges["lease.held"]; got != 1 {
		t.Fatalf("lease.held gauge = %d under a grant, want 1", got)
	}
	if !h.Valid() {
		t.Fatal("grant not valid")
	}
	h.Revoke()
	if h.Valid() || h.Held() {
		t.Fatal("lease survived explicit revoke")
	}
	h.Revoke() // idempotent
	if got := reg.Counter("lease.grants").Value(); got != 1 {
		t.Fatalf("lease.grants = %d, want 1", got)
	}
	if got := reg.Counter("lease.revokes").Value(); got != 1 {
		t.Fatalf("lease.revokes = %d, want 1", got)
	}
	if got := reg.Snapshot().Gauges["lease.held"]; got != 0 {
		t.Fatalf("lease.held gauge = %d, want 0", got)
	}
}

func TestLeaseWireRoundTrip(t *testing.T) {
	in := leaseMsg{epoch: 9, ttlUs: 150_000, grantNs: 1_700_000_000_123_456_789}
	out, err := decodeLease(encodeLease(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("lease round trip: got %+v, want %+v", out, in)
	}
}

// TestLeaseRenewalsBoundedWhileLost: while every renewal to a backup is
// lost, at most one is in flight to it at a time (each waits out the pool's
// timeout), and the lease is granted again once the loss ends.
func TestLeaseRenewalsBoundedWhileLost(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	holder := NewLeaseHolder(func() uint64 { return 1 }, nil, nil)
	srv := rpc.NewServer()
	RegisterBackupLeased(srv, ApplierFunc(func(uint64, *store.Batch) error { return nil }), nil, nil, nil, holder)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pool := rpc.NewPool(&rpc.ClientOptions{Timeout: 300 * time.Millisecond})
	t.Cleanup(pool.Close)
	reg := telemetry.NewRegistry()
	pool.SetTelemetry(reg)
	s := NewShipper(pool, nil)
	t.Cleanup(s.Close)
	s.SetEpoch(1)
	s.SetBackups([]string{addr})
	s.SetLeaseTTL(testTTL)
	leased := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(3 * time.Second); !holder.Valid(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	leased("the first grant")

	fault.Add(fault.Rule{Site: MethodLease, To: addr, Action: fault.Drop})
	inFlight, peak := reg.Gauge("rpc.client.in_flight"), int64(0)
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		peak = max(peak, inFlight.Value())
	}
	if peak != 1 {
		t.Fatalf("%d renewals in flight at once to a backup that never answers, want 1", peak)
	}
	if holder.Valid() {
		t.Fatal("the lease outlived 2s of lost renewals")
	}
	if lost := fault.Counters()[MethodLease+".drop"]; lost > uint64(2*time.Second/(300*time.Millisecond))+2 {
		t.Fatalf("%d renewals sent in 2s at a 300ms timeout: they piled up", lost)
	}
	fault.Remove(MethodLease, addr)
	leased("the lease to be granted again")
}

// leaseBackup serves a backup's replication handlers, fenced by and leased
// at localEpoch, and returns its holder and address.
func leaseBackup(t *testing.T, localEpoch func() uint64, reg *telemetry.Registry) (*LeaseHolder, string) {
	t.Helper()
	holder := NewLeaseHolder(localEpoch, nil, reg)
	srv := rpc.NewServer()
	RegisterBackupLeased(srv, ApplierFunc(func(uint64, *store.Batch) error { return nil }), nil, nil, localEpoch, holder)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return holder, addr
}

// hourLeaseShipper returns a shipper granting hour-long leases: its renewal
// period never passes in a test, so every grant a test sees was sent on a
// fan-out being set, or retried.
func hourLeaseShipper(t *testing.T) *Shipper {
	t.Helper()
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	s := NewShipper(pool, nil)
	t.Cleanup(s.Close)
	s.SetLeaseTTL(time.Hour)
	return s
}

// TestLeaseGrantRetriedUntilBackupCatchesUp: a grant that reaches a backup
// not yet at the shipper's epoch is refused, counted, and sent again, so the
// backup holds its lease within moments of installing the epoch — not one
// renewal period later.
func TestLeaseGrantRetriedUntilBackupCatchesUp(t *testing.T) {
	var local atomic.Uint64
	local.Store(1)
	reg := telemetry.NewRegistry()
	holder, addr := leaseBackup(t, local.Load, reg)
	s := hourLeaseShipper(t)
	s.SetEpoch(2)
	s.SetBackups([]string{addr})

	refused := reg.Counter("lease.refused")
	waitFor(t, 3*time.Second, "a grant refused by the lagging backup", func() bool { return refused.Value() >= 1 })
	if holder.Held() {
		t.Fatal("a backup at epoch 1 took a grant of epoch 2")
	}
	local.Store(2)
	waitFor(t, 50*time.Millisecond, "the lease once the backup caught up", holder.Valid)
}

// TestLeaseGrantFollowsReconfigurationInFlight: a configuration installed
// while the backup's grant is out — so the install skips the backup, whose
// one renewal is in flight — is granted as soon as that grant returns.
func TestLeaseGrantFollowsReconfigurationInFlight(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	var local atomic.Uint64
	local.Store(1)
	holder, addr := leaseBackup(t, local.Load, nil)
	fault.Add(fault.Rule{Site: MethodLease, To: addr, Action: fault.Delay, Delay: 100 * time.Millisecond, Count: 1})
	s := hourLeaseShipper(t)
	s.SetEpoch(1)
	s.SetBackups([]string{addr})
	waitFor(t, 3*time.Second, "the epoch-1 grant to be held back", func() bool { return fault.Counters()[MethodLease+".delay"] == 1 })

	local.Store(2)
	s.SetEpoch(2)
	s.SetBackups([]string{addr})
	waitFor(t, 3*time.Second, "a lease at epoch 2", holder.Valid)
}

// waitFor polls cond until it holds, failing the test after timeout.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
	}
}
