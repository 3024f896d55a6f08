// Read leases: the primary grants its backups short, epoch-stamped
// permissions to serve read-only invocations locally (paper §4.2.1 lets
// read-only methods execute at any replica; the lease makes that safe).
//
// The grant rides the replication stream itself: every applyBatch frame a
// primary ships carries a trailing (ttl, enq) blob that both renews the
// lease and tells the backup how many write-set members the primary has
// shipped toward it so far. A standalone MethodLease grant goes to every
// backup as soon as a configuration sets the primary's fan-out, so a
// group's backups serve reads from its first request; idle groups are then
// kept leased by the same grant at TTL/4. A backup answers each grant with
// whether it took and the epoch it is at: one that has not yet installed
// the granted epoch refuses it, and the primary grants it again after 1, 2,
// 4 … ms, up to TTL/4. A backup serves a read only while ALL of the
// following hold:
//
//   - the lease epoch equals the backup's current directory epoch — any
//     reconfiguration (failover, rejoin cutover, migration SetOverride)
//     bumps the epoch and the lease dies with it;
//   - the lease is unexpired, measured from the SENDER's grant stamp
//     (not from receipt, so a grant delayed in flight arrives with
//     correspondingly less validity left), and the backup honors only
//     3/4 of the granted TTL while the primary's write-ack barriers wait
//     the full TTL — a TTL/4 margin covering modest clock skew;
//   - the backup's apply lag — members the primary shipped toward it minus
//     members this backup has applied, measured against baselines
//     captured at grant — is within the configured bound. A lagging or
//     partitioned backup silently drops its lease and bounces reads to
//     the primary rather than serving an old prefix.
//
// Staleness argument: the primary ships a committed write-set to every
// backup before releasing the client ack, and a frame error withholds the
// ack. So at the instant any write is client-visible, every backup that
// could validly serve a read has already applied it (moving the object's
// version key and invalidating its cached results in ApplyReplicated). The residual hazards are
// backups that stopped receiving frames — eviction, cutover — and those
// are covered by the epoch check plus the primary-side barrier that
// stalls write acks for a full TTL after any lease-breaking
// reconfiguration (see cluster.Node.SetDirectory).
package replication

import (
	"sync"
	"time"

	"lambdastore/internal/rpc"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// MethodLease is the standalone lease-renewal RPC: a primary keeps idle
// backups leased without shipping empty applyBatch frames.
const MethodLease = "repl.lease"

// leaseMsg is the wire form of a renewal: the primary's configuration
// epoch, the granted TTL, the cumulative count of members shipped toward
// the receiving backup (the lag reference), and the sender's
// clock reading at the moment the grant was issued. The backup measures
// expiry from grantNs, NOT from receipt: a grant that sat in a socket
// buffer or a scheduler queue arrives with correspondingly less validity
// left, so in-flight delivery delay can never extend a lease past the
// window the primary's write-ack barrier assumes.
type leaseMsg struct {
	epoch   uint64
	ttlUs   uint64
	enq     uint64
	grantNs uint64
}

func encodeLease(m leaseMsg) []byte {
	var b []byte
	b = wire.AppendUvarint(b, m.epoch)
	b = wire.AppendUvarint(b, m.ttlUs)
	b = wire.AppendUvarint(b, m.enq)
	return wire.AppendUvarint(b, m.grantNs)
}

func decodeLease(body []byte) (leaseMsg, error) {
	r := wire.NewReader(body)
	m := leaseMsg{epoch: r.Uvarint(), ttlUs: r.Uvarint(), enq: r.Uvarint(), grantNs: r.Uvarint()}
	return m, r.ErrIn("replication: lease")
}

// leaseReply is a backup's answer to a MethodLease grant: whether the grant
// took, and the configuration epoch the backup is at. A grant refused by a
// backup behind its epoch is worth sending again; one refused by a backup
// past it is not.
type leaseReply struct {
	took  bool
	epoch uint64
}

func encodeLeaseReply(m leaseReply) []byte {
	return wire.AppendUvarint(wire.AppendFlag(nil, m.took), m.epoch)
}

func decodeLeaseReply(body []byte) (leaseReply, error) {
	r := wire.NewReader(body)
	m := leaseReply{took: r.Flag(), epoch: r.Uvarint()}
	return m, r.ErrIn("replication: lease reply")
}

// LeaseHolder is the backup-side lease state machine. All methods are
// safe for concurrent use; Valid sits on the read-serving hot path and
// takes one short mutex.
type LeaseHolder struct {
	localEpoch func() uint64
	lagMax     uint64
	now        func() time.Time

	mu      sync.Mutex
	held    bool
	epoch   uint64
	expiry  time.Time
	enqSeen uint64 // latest shipped-member count reported by the primary
	applied uint64 // write-set entries this backup has applied (cumulative)
	enqBase uint64 // enqSeen at grant
	appBase uint64 // applied at grant

	grants  *telemetry.Counter
	renews  *telemetry.Counter
	revokes *telemetry.Counter
	expired *telemetry.Counter
	refused *telemetry.Counter
}

// DefaultLeaseApplyLagMax bounds how many shipped-but-unapplied write-set
// entries a backup tolerates before dropping its lease.
const DefaultLeaseApplyLagMax = 256

// NewLeaseHolder builds a holder fenced by localEpoch (required). lagMax
// <= 0 uses DefaultLeaseApplyLagMax; now == nil uses time.Now. The holder's
// counters and its sampled held-lease gauge are published in reg.
func NewLeaseHolder(localEpoch func() uint64, lagMax int, now func() time.Time, reg *telemetry.Registry) *LeaseHolder {
	if lagMax <= 0 {
		lagMax = DefaultLeaseApplyLagMax
	}
	if now == nil {
		now = time.Now
	}
	h := &LeaseHolder{
		localEpoch: localEpoch, lagMax: uint64(lagMax), now: now,
		grants:  reg.Counter("lease.grants"),
		renews:  reg.Counter("lease.renews"),
		revokes: reg.Counter("lease.revokes"),
		expired: reg.Counter("lease.expired"),
		refused: reg.Counter("lease.refused"),
	}
	reg.GaugeFunc("lease.held", func() int64 {
		if h.Held() {
			return 1
		}
		return 0
	})
	return h
}

// NoteApplied records write-set entries this backup applied from the
// replication stream. Called for every applyBatch frame, leased or not,
// so the lag baseline is meaningful the moment a grant arrives.
func (h *LeaseHolder) NoteApplied(entries int) {
	if h == nil || entries <= 0 {
		return
	}
	h.mu.Lock()
	h.applied += uint64(entries)
	h.mu.Unlock()
}

// Renew processes a grant/renewal (piggybacked on a frame or via
// MethodLease) and reports whether it took and the backup's current
// directory epoch. A renewal stamped with another epoch is from a deposed
// or not-yet-seen configuration; it is refused (counted in lease.refused)
// — and if it reveals the backup's own lease epoch is obsolete, the lease
// is revoked on the spot.
func (h *LeaseHolder) Renew(m leaseMsg) (took bool, local uint64) {
	if h == nil {
		return false, 0
	}
	local = h.localEpoch()
	if m.ttlUs == 0 || m.epoch == 0 {
		return false, local
	}
	// Expiry is measured from the sender's grant stamp, not from receipt,
	// so delivery latency consumes the lease instead of extending it. The
	// backup additionally honors only 3/4 of the granted TTL while the
	// primary's barriers wait the full TTL — that margin now covers clock
	// skew alone. A stamp from the future (skewed sender clock) is clamped
	// to the local clock so it cannot widen the window either.
	now := h.now()
	ttl := time.Duration(m.ttlUs) * time.Microsecond
	grant := now
	if m.grantNs > 0 {
		if t := time.Unix(0, int64(m.grantNs)); t.Before(now) {
			grant = t
		}
	}
	exp := grant.Add(ttl * 3 / 4)
	h.mu.Lock()
	defer h.mu.Unlock()
	if !exp.After(now) {
		// Expired in flight: the grant spent more than 3/4 TTL getting
		// here. Honoring it from receipt time is exactly the hazard the
		// stamp exists to close, so drop it on the floor.
		h.expired.Inc()
		return false, local
	}
	if m.epoch != local {
		h.refused.Inc()
		if h.held && h.epoch != local {
			h.revokeLocked(h.revokes)
		}
		return false, local
	}
	if h.held && h.epoch == m.epoch {
		// Renewals can arrive out of order with frames (the idle-loop RPC
		// races the group sends); both the expiry and enqSeen only move
		// forward so a late arrival can neither shorten a fresher lease
		// nor understate lag.
		if exp.After(h.expiry) {
			h.expiry = exp
		}
		if m.enq > h.enqSeen {
			h.enqSeen = m.enq
		}
		h.renews.Inc()
		return true, local
	}
	h.held = true
	h.epoch = m.epoch
	h.expiry = exp
	h.enqSeen = m.enq
	h.enqBase = m.enq
	h.appBase = h.applied
	h.grants.Inc()
	return true, local
}

// revokeLocked drops the lease, crediting the given cause counter.
func (h *LeaseHolder) revokeLocked(cause *telemetry.Counter) {
	h.held = false
	cause.Inc()
}

// Revoke unconditionally drops the lease (reconfiguration observed by
// the node — failover, rejoin cutover, migration). Idempotent.
func (h *LeaseHolder) Revoke() {
	h.mu.Lock()
	if h.held {
		h.revokeLocked(h.revokes)
	}
	h.mu.Unlock()
}

// Valid reports whether this backup may serve a consistent read right
// now. A failed check revokes the lease (counted by cause) so the next
// grant is a fresh one with fresh lag baselines.
func (h *LeaseHolder) Valid() bool {
	now := h.now()
	local := h.localEpoch()
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.held {
		return false
	}
	if h.epoch != local {
		h.revokeLocked(h.revokes)
		return false
	}
	if now.After(h.expiry) {
		h.revokeLocked(h.expired)
		return false
	}
	// Signed-tolerant lag: a backup restarted mid-lease can make either
	// delta go backwards; treat any inversion as "unknown, bounce".
	enqDelta := h.enqSeen - h.enqBase
	appDelta := h.applied - h.appBase
	if enqDelta > (1<<63) || appDelta > (1<<63) || (enqDelta > appDelta && enqDelta-appDelta > h.lagMax) {
		h.revokeLocked(h.revokes)
		return false
	}
	return true
}

// Held reports whether a lease is currently held without re-validating
// expiry or lag (what the lease.held gauge samples).
func (h *LeaseHolder) Held() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held
}

// registerLease exposes the standalone renewal handler on srv; its reply
// tells the primary whether the grant took.
func registerLease(srv *rpc.Server, holder *LeaseHolder) {
	srv.Handle(MethodLease, func(body []byte) ([]byte, error) {
		m, err := decodeLease(body)
		if err != nil {
			return nil, err
		}
		took, local := holder.Renew(m)
		return encodeLeaseReply(leaseReply{took: took, epoch: local}), nil
	})
}
