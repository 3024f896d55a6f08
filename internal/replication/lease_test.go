package replication

import (
	"testing"
	"time"

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

func testHolder(epoch *uint64, lagMax int) (*LeaseHolder, *fakeClock) {
	clk := newFakeClock()
	h := NewLeaseHolder(func() uint64 { return *epoch }, lagMax, clk.now, nil)
	return h, clk
}

func grant(h *LeaseHolder, clk *fakeClock, epoch, enq uint64) {
	h.Renew(leaseMsg{epoch: epoch, ttlUs: uint64(testTTL / time.Microsecond), enq: enq, grantNs: clk.stamp()})
}

func TestLeaseGrantAndExpiry(t *testing.T) {
	epoch := uint64(3)
	h, clk := testHolder(&epoch, 0)
	if h.Valid() {
		t.Fatal("holder valid before any grant")
	}
	grant(h, clk, 3, 0)
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
	grant(h, clk, 3, 0)
	if !h.Valid() {
		t.Fatal("re-grant after expiry not valid")
	}
}

func TestLeaseDelayedGrantDoesNotExtend(t *testing.T) {
	// The delivery-delay hazard: a grant that sat in flight must arrive
	// with correspondingly less validity, measured from the SENDER's
	// stamp. Otherwise a final in-flight frame could extend a lease past
	// the primary's post-reconfiguration write-ack barrier.
	epoch := uint64(1)
	h, clk := testHolder(&epoch, 0)
	ttlUs := uint64(testTTL / time.Microsecond)

	// Stamped half a TTL ago: only a quarter TTL of validity remains.
	h.Renew(leaseMsg{epoch: 1, ttlUs: ttlUs, enq: 0, grantNs: clk.stampAgo(testTTL / 2)})
	if !h.Valid() {
		t.Fatal("grant with remaining validity rejected")
	}
	clk.advance(testTTL/4 + time.Millisecond)
	if h.Valid() {
		t.Fatal("delayed grant honored from receipt time, not grant stamp")
	}

	// Stamped a full 3/4 TTL ago: expired in flight, must be ignored.
	h.Renew(leaseMsg{epoch: 1, ttlUs: ttlUs, enq: 0, grantNs: clk.stampAgo(testTTL * 3 / 4)})
	if h.Valid() || h.Held() {
		t.Fatal("grant that expired in flight was honored")
	}
}

func TestLeaseFutureStampClamped(t *testing.T) {
	// A sender clock running ahead must not widen the window beyond
	// 3/4 TTL from the local clock.
	epoch := uint64(1)
	h, clk := testHolder(&epoch, 0)
	h.Renew(leaseMsg{
		epoch:   1,
		ttlUs:   uint64(testTTL / time.Microsecond),
		enq:     0,
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
	// Renewals race frames; one that arrives out of order with an older
	// stamp must not pull an existing fresher expiry backwards.
	epoch := uint64(1)
	h, clk := testHolder(&epoch, 0)
	grant(h, clk, 1, 0)
	ttlUs := uint64(testTTL / time.Microsecond)
	h.Renew(leaseMsg{epoch: 1, ttlUs: ttlUs, enq: 0, grantNs: clk.stampAgo(testTTL / 2)})
	clk.advance(testTTL / 2)
	if !h.Valid() {
		t.Fatal("stale renewal shortened a fresher lease")
	}
}

func TestLeaseEpochFence(t *testing.T) {
	epoch := uint64(5)
	h, clk := testHolder(&epoch, 0)

	// Grants from other configurations are ignored entirely.
	grant(h, clk, 4, 0)
	if h.Held() {
		t.Fatal("grant from a deposed epoch accepted")
	}
	grant(h, clk, 6, 0)
	if h.Held() {
		t.Fatal("grant from a not-yet-seen epoch accepted")
	}

	// A valid lease dies the moment the local epoch moves on.
	grant(h, clk, 5, 0)
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

func TestLeaseApplyLagRevocation(t *testing.T) {
	epoch := uint64(1)
	h, clk := testHolder(&epoch, 8)
	grant(h, clk, 1, 100) // baseline: 100 entries enqueued at grant
	if !h.Valid() {
		t.Fatal("grant not valid")
	}

	// Primary reports more enqueued entries than we applied, within bound.
	grant(h, clk, 1, 107)
	if !h.Valid() {
		t.Fatal("lag within bound revoked the lease")
	}

	// Past the bound: the backup is falling behind the stream it is
	// supposed to serve from; it must bounce reads rather than serve an
	// old prefix.
	grant(h, clk, 1, 120)
	if h.Valid() {
		t.Fatal("lag beyond bound did not revoke the lease")
	}

	// Once the backup catches up, a fresh grant re-arms serving.
	h.NoteApplied(20)
	grant(h, clk, 1, 120)
	if !h.Valid() {
		t.Fatal("caught-up backup did not regain a lease")
	}
}

func TestLeaseExplicitRevoke(t *testing.T) {
	epoch := uint64(1)
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	h := NewLeaseHolder(func() uint64 { return epoch }, 0, clk.now, reg)
	grant(h, clk, 1, 0)
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
	in := leaseMsg{epoch: 9, ttlUs: 150_000, enq: 12345, grantNs: 1_700_000_000_123_456_789}
	out, err := decodeLease(encodeLease(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("lease round trip: got %+v, want %+v", out, in)
	}
}

func TestApplyBatchLeaseTrailerRoundTrip(t *testing.T) {
	b := store.NewBatch()
	b.Put([]byte("k"), []byte("v"))
	entries := []*shipment{{object: 7, data: b.Encode()}}

	// With a lease trailer.
	msg := new(applyBatchMsg)
	if err := msg.decode(appendApplyBatch(nil, 4, entries, 150_000, 42, 987_654_321)); err != nil {
		t.Fatal(err)
	}
	if msg.epoch != 4 || len(msg.msgs) != 1 || msg.msgs[0].object != 7 {
		t.Fatalf("frame decode: %+v", msg)
	}
	if msg.leaseTTLUs != 150_000 || msg.leaseEnq != 42 || msg.leaseGrantNs != 987_654_321 {
		t.Fatalf("lease trailer decode: ttl=%d enq=%d grant=%d", msg.leaseTTLUs, msg.leaseEnq, msg.leaseGrantNs)
	}

	// Without one (leasing disabled): trailer absent, fields zero.
	if err := msg.decode(appendApplyBatch(nil, 4, entries, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if msg.leaseTTLUs != 0 || msg.leaseEnq != 0 || msg.leaseGrantNs != 0 {
		t.Fatalf("unleased frame grew a trailer: %+v", msg)
	}
}
