package recovery

import (
	"fmt"
	"sync/atomic"
	"time"

	"lambdastore/internal/store"
)

// The sender half: the session table, the commit relay, and the reads a
// receiver pulls. It runs on whichever node holds the state — a primary
// donating to a joiner, or the source primary of a move.

// sessionKey identifies one transfer session at its sender.
type sessionKey struct {
	peer  string
	scope scope
}

// session is one receiver's transfer, sender side. Counters are atomics
// because relays run concurrently under the commit guard's read lock.
type session struct {
	key sessionKey
	// epoch pins a whole-replica session to one configuration; object
	// sessions are not pinned (another object's cutover must not abort an
	// unrelated move).
	epoch uint64
	// relay is set by the receiver's begin: a replica session is created by
	// it, an object session earlier, by the Move it belongs to. from is the
	// store's last sequence when it was set: the groups it covers are in
	// every snapshot the receiver pulls, and are not relayed.
	relay      atomic.Bool
	from       atomic.Uint64
	strict     atomic.Bool
	gaps       atomic.Uint64 // members whose relay failed
	strictGaps atomic.Uint64 // members whose strict relay failed: admission refuses the session
	fwd        atomic.Uint64 // members relayed
	started    time.Time

	// failingSince is the start (unixnano) of the current run of relay
	// failures, 0 when the last relay succeeded; a run longer than
	// failTimeout drops the session.
	failingSince atomic.Int64
}

// GuardCommit brackets one write group's ship+relay sequence. The returned
// release must be deferred around both. With no session active it is a
// single atomic load, and admission does not wait for the group: its
// members were applied before any session began, so Relay skips them.
func (p *Plane) GuardCommit() (release func()) {
	if p.active.Load() == 0 {
		return func() {}
	}
	p.commitMu.RLock()
	return p.commitMu.RUnlock
}

// check validates a session-scoped request against the sender's current
// role and, for a whole-replica session, its configuration view.
func (p *Plane) check(req *sessionReq) error {
	if !p.isPrimary() {
		return fmt.Errorf("recovery: sender is not the group primary")
	}
	if local := p.opts.Directory().Epoch(); !req.scope.scoped && req.epoch != local {
		return fmt.Errorf("recovery: epoch mismatch: session %d, sender %d", req.epoch, local)
	}
	return nil
}

// begin starts the relay for the receiver's session, strictly before the
// reply: every snapshot the receiver's later fetches pin is taken after the
// relay is on, so each commit is in a snapshot, relayed, or both (a
// write-set re-applied over its own effects is a no-op). A replica session
// is opened (or reopened) here; an object session must have been opened by
// this node's Move toward that peer.
func (p *Plane) begin(req *sessionReq) error {
	if err := p.check(req); err != nil {
		return err
	}
	p.smu.Lock()
	defer p.smu.Unlock()
	key := req.key()
	s := p.sessions[key]
	if key.scope.scoped {
		if s == nil {
			return fmt.Errorf("recovery: no move of %s to %s in progress", key.scope, key.peer)
		}
	} else {
		s = &session{key: key, epoch: req.epoch, started: time.Now()}
		p.sessions[key] = s
		p.active.Store(int32(len(p.sessions)))
	}
	s.from.Store(p.opts.DB.LastSequence())
	s.relay.Store(true)
	return nil
}

// openOutbound opens the object session of an outbound move; the target's
// begin starts its relay.
func (p *Plane) openOutbound(key sessionKey) error {
	p.smu.Lock()
	defer p.smu.Unlock()
	for k := range p.sessions {
		if k.scope == key.scope {
			return fmt.Errorf("recovery: %s is already moving", key.scope)
		}
	}
	p.sessions[key] = &session{key: key, started: time.Now()}
	p.active.Store(int32(len(p.sessions)))
	return nil
}

// end closes the session (idempotent).
func (p *Plane) end(key sessionKey) {
	p.smu.Lock()
	defer p.smu.Unlock()
	delete(p.sessions, key)
	p.active.Store(int32(len(p.sessions)))
}

// retire serves recovery.end under commitMu's write lock: the relays already
// in flight to a receiver that gave up land before it stops listening, not
// on its closed session, where a strict one would withhold a client's ack.
func (p *Plane) retire(req *sessionReq) error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	p.end(req.key())
	return nil
}

// lookup returns the request's session after validating it.
func (p *Plane) lookup(req *sessionReq) (*session, error) {
	if err := p.check(req); err != nil {
		return nil, err
	}
	p.smu.Lock()
	defer p.smu.Unlock()
	s, ok := p.sessions[req.key()]
	if !ok {
		return nil, fmt.Errorf("recovery: no %s session for %s", req.scope, req.peer)
	}
	if s.epoch != req.epoch && !req.scope.scoped {
		return nil, fmt.Errorf("recovery: session epoch %d, request %d", s.epoch, req.epoch)
	}
	return s, nil
}

// Relay forwards a write group's members to every session that covers them
// — all to a whole-replica session, its object's to a move — in one
// applyBatch-format frame per session, under the first covered member's
// trace. The group hook calls it under GuardCommit once the backups acked,
// with the members' objects still locked: each object's commits relay in
// order. A group numbered at or below a session's from was in the store
// before that relay began, so every snapshot the receiver pulls holds it,
// and it is not relayed: its hook may have taken no guard, and a relay
// that admission did not wait for could reach the joiner after its session
// closed. A failed relay is a gap. Before promote the certifying digest
// round repairs it (in a move, the seal does); after promote it fails the
// members it covers — a joiner pays a backup's cost to earn a backup's
// seat — and bars the session from admission. Relays that failed
// continuously for failTimeout drop the session, so a dead receiver never
// taxes the commit path for longer.
func (p *Plane) Relay(g *store.Group) {
	if p.active.Load() == 0 {
		return
	}
	p.smu.Lock()
	var sessions []*session
	for _, s := range p.sessions {
		if s.relay.Load() {
			sessions = append(sessions, s)
		}
	}
	p.smu.Unlock()
	for _, s := range sessions {
		if g.Batch(0).Seq() <= s.from.Load() {
			continue
		}
		sc := s.key.scope
		var covered []int
		for i := range g.Len() {
			if sc.covers(g.Object(i)) {
				covered = append(covered, i)
			}
		}
		if len(covered) == 0 {
			continue
		}
		n := uint64(len(covered))
		relay := encodeRelay(&sessionReq{peer: s.key.peer, epoch: s.epoch, scope: sc}, g)
		_, err := p.call(g.Batch(covered[0]).Trace(), s.key.peer, MethodForward, relay)
		if err == nil {
			s.failingSince.Store(0)
			s.fwd.Add(n)
			p.m.forwards[sc.kind()].Add(n)
			continue
		}
		s.gaps.Add(n)
		p.m.gaps[sc.kind()].Add(n)
		now := time.Now().UnixNano()
		s.failingSince.CompareAndSwap(0, now)
		if time.Duration(now-s.failingSince.Load()) > p.failTimeout {
			// The receiver has been unreachable for the whole window. A
			// strict session was never admitted (admission retires it
			// first, under the commit guard's write lock), so dropping it
			// only abandons the transfer.
			p.end(s.key)
		} else if s.strict.Load() {
			s.strictGaps.Add(n)
			err = fmt.Errorf("recovery: strict forward to %s: %w", s.key.peer, err)
			for _, i := range covered {
				g.Fail(i, err)
			}
		}
	}
}

// admit runs the epoch-fenced cutover for one strict replica session.
// Taking commitMu exclusively drains every in-flight ship+relay (each of
// which either reached the joiner or withheld its acks) and stalls new
// groups; the configuration change and the sender's directory refresh then
// happen inside the quiescent window, so the first commit after release
// ships to the joiner as a real backup. A strict relay that failed left
// the sender holding a write the joiner lacks, which no round looks for:
// such a session is refused, and the joiner begins again. Object sessions
// take no part: a move commits through its own cutover.
func (p *Plane) admit(req *sessionReq) error {
	if req.scope.scoped {
		return fmt.Errorf("recovery: admit of an object session")
	}
	s, err := p.lookup(req)
	if err != nil {
		return err
	}
	if !s.strict.Load() {
		return fmt.Errorf("recovery: admit before promote for %s", req.peer)
	}
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	// Re-check under the fence: the expiry rule may have dropped the
	// session while we waited for the lock.
	p.smu.Lock()
	cur := p.sessions[s.key]
	p.smu.Unlock()
	if cur != s {
		return fmt.Errorf("recovery: session for %s retired before admission", req.peer)
	}
	if n := s.strictGaps.Load(); n != 0 {
		return fmt.Errorf("recovery: refusing %s: %d strictly relayed writes failed to reach it", req.peer, n)
	}
	if err := p.opts.Admit(req.peer, req.epoch); err != nil {
		return err
	}
	p.end(s.key)
	return nil
}

// promote switches a replica session to strict relaying. The flip happens
// before the reply: every relay that fails after the joiner sees the
// response is strict, so the digest round the joiner runs next certifies
// convergence (DESIGN §11).
func (p *Plane) promote(req *sessionReq) error {
	if req.scope.scoped {
		return fmt.Errorf("recovery: promote of an object session")
	}
	s, err := p.lookup(req)
	if err != nil {
		return err
	}
	s.strict.Store(true)
	return nil
}

// SessionStatus is one sender-side session as shown by /recovery and
// lambdactl.
type SessionStatus struct {
	Joiner     string  `json:"joiner"`
	Scope      string  `json:"scope"`
	Epoch      uint64  `json:"epoch"`
	Strict     bool    `json:"strict"`
	Forwarded  uint64  `json:"forwarded"`
	Gaps       uint64  `json:"gaps"`
	AgeSeconds float64 `json:"age_seconds"`
}

// Sessions snapshots the sender-side sessions.
func (p *Plane) Sessions() []SessionStatus {
	p.smu.Lock()
	defer p.smu.Unlock()
	out := make([]SessionStatus, 0, len(p.sessions))
	for _, s := range p.sessions {
		out = append(out, SessionStatus{
			Joiner:     s.key.peer,
			Scope:      s.key.scope.String(),
			Epoch:      s.epoch,
			Strict:     s.strict.Load(),
			Forwarded:  s.fwd.Load(),
			Gaps:       s.gaps.Load(),
			AgeSeconds: time.Since(s.started).Seconds(),
		})
	}
	return out
}

// Moves returns the number of moves in flight from and into this node (an
// inbound count that stays non-zero after a failed move means the janitor
// has not yet reclaimed the copy).
func (p *Plane) Moves() (outbound, inbound int) {
	p.smu.Lock()
	for k := range p.sessions {
		if k.scope.scoped {
			outbound++
		}
	}
	p.smu.Unlock()
	p.imu.Lock()
	defer p.imu.Unlock()
	inbound = len(p.inbound)
	if p.inbound[scope{}] != nil {
		inbound-- // the joiner's own replica session
	}
	return outbound, inbound
}

// serveChunk reads one bounded chunk of [start, end) from a consistent
// snapshot and encodes it.
func (p *Plane) serveChunk(req *fetchReq) ([]byte, error) {
	resp := &fetchResp{}
	bytes := 0
	err := scanRange(p.opts.DB, req.start, req.end, func(k, v []byte) bool {
		if len(resp.keys) >= chunkEntries || bytes >= chunkByteCap {
			resp.next = append([]byte(nil), k...)
			return false
		}
		resp.keys = append(resp.keys, append([]byte(nil), k...))
		resp.values = append(resp.values, append([]byte(nil), v...))
		bytes += len(k) + len(v)
		return true
	})
	return encodeFetchResp(resp), err
}
