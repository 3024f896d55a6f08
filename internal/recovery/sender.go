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
	relay   atomic.Bool
	from    atomic.Uint64
	fwd     atomic.Uint64 // members relayed
	started time.Time
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

// begin starts the relay for the receiver's session before it replies:
// every snapshot the receiver's later fetches pin is taken after the
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
func (p *Plane) openOutbound(key sessionKey) (*session, error) {
	p.smu.Lock()
	defer p.smu.Unlock()
	for k := range p.sessions {
		if k.scope == key.scope {
			return nil, fmt.Errorf("recovery: %s is already moving", key.scope)
		}
	}
	s := &session{key: key, started: time.Now()}
	p.sessions[key] = s
	p.active.Store(int32(len(p.sessions)))
	return s, nil
}

// end closes s if it is still registered: a newer session under its key —
// a joiner's next begin, another move of the object — stays.
func (p *Plane) end(s *session) {
	p.smu.Lock()
	defer p.smu.Unlock()
	if p.sessions[s.key] == s {
		delete(p.sessions, s.key)
		p.active.Store(int32(len(p.sessions)))
	}
}

// registered reports whether s is still open: no relay of it failed and
// nothing ended it.
func (p *Plane) registered(s *session) bool {
	p.smu.Lock()
	defer p.smu.Unlock()
	return p.sessions[s.key] == s
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
// and it is not relayed: its hook may have taken no guard, and admission
// waits only for guarded relays. The first relay that fails ends the
// session it was sent for — the receiver lacks a write no later step looks
// for, so a rejoin cannot be admitted from it nor a move seal on it — and
// never fails the members: a joiner is not yet a backup, and its loss
// withholds no ack.
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
		if _, err := p.call(g.Batch(covered[0]).Trace(), s.key.peer, MethodForward, relay); err != nil {
			p.m.gaps[sc.kind()].Add(n)
			p.end(s)
			continue
		}
		s.fwd.Add(n)
		p.m.forwards[sc.kind()].Add(n)
	}
}

// admit runs the epoch-fenced cutover for one replica session. Taking
// commitMu exclusively drains every in-flight ship+relay (each of which
// either reached the joiner or ended the session) and stalls new groups;
// the configuration change and the sender's directory refresh then happen
// inside the quiescent window, so the first commit after release ships to
// the joiner as a real backup. A session that a failed relay ended is
// refused, and the joiner begins again. Object sessions take no part: a
// move commits through its own cutover. Every refusal made before the
// configuration change is proposed begins with refusedPrefix, so the
// joiner knows no membership can follow it.
func (p *Plane) admit(req *sessionReq) error {
	if req.scope.scoped {
		return fmt.Errorf("%san object session", refusedPrefix)
	}
	s, err := p.lookup(req)
	if err != nil {
		return fmt.Errorf("%s%w", refusedPrefix, err)
	}
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if !p.registered(s) {
		return fmt.Errorf("%s%s: a relayed write failed to reach it", refusedPrefix, req.peer)
	}
	if err := p.opts.Admit(req.peer, req.epoch); err != nil {
		return err
	}
	p.end(s)
	return nil
}

// SessionStatus is one sender-side session as shown by node.recovery and
// lambdactl.
type SessionStatus struct {
	Joiner     string  `json:"joiner"`
	Scope      string  `json:"scope"`
	Epoch      uint64  `json:"epoch"`
	Forwarded  uint64  `json:"forwarded"`
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
			Forwarded:  s.fwd.Load(),
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
