package recovery

import (
	"fmt"
	"sync/atomic"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
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
// because forwards run concurrently under the commit guard's read lock.
type session struct {
	key sessionKey
	// epoch pins a whole-replica session to one configuration; object
	// sessions are not pinned (another object's cutover must not abort an
	// unrelated move).
	epoch uint64
	// relay is set by the receiver's begin: a replica session is created by
	// it, an object session earlier, by the Move it belongs to.
	relay   atomic.Bool
	strict  atomic.Bool
	gaps    atomic.Uint64 // forwards that failed (the digest check repairs them)
	fwd     atomic.Uint64
	started time.Time

	// failingSince is the start (unixnano) of the current run of forward
	// failures, 0 when the last forward succeeded; a run longer than
	// failTimeout drops the session.
	failingSince atomic.Int64
	table        *DigestTable // cached at digest time for the objects drill-down (smu)
}

// GuardCommit brackets one commit's ship+forward sequence. The returned
// release must be deferred around both. With no session active it is a
// single atomic load.
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
// relay is on, so each commit is in a snapshot, forwarded, or both (a
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

// relaysFor returns the sessions a commit of object is relayed into: every
// relaying whole-replica session, and the object's own move. A commit no
// session covers allocates nothing.
func (p *Plane) relaysFor(object uint64) (out []*session) {
	p.smu.Lock()
	defer p.smu.Unlock()
	for k, s := range p.sessions {
		if s.relay.Load() && (!k.scope.scoped || k.scope.object == object) {
			out = append(out, s)
		}
	}
	return out
}

// ForwardCommit relays one committed write-set to every session whose scope
// covers the object: all whole-replica sessions, and the object's own move.
// Called from the primary's commit hook (under GuardCommit) after the
// backups acknowledged, while the object's scheduler lock is still held —
// so each object's commits are forwarded in order. ctx is the committing
// request's trace context: the relay joins the trace of the write it relays.
//
// A failed forward is a gap the session's digest check repairs (a rejoin's
// verify rounds, a move's seal). Strict sessions also return the failure,
// which withholds the client ack — between promote and admission a joiner
// pays a backup's cost to earn a backup's seat. One expiry rule for every
// kind of session: forwards that failed continuously for failTimeout drop
// it, so a receiver that died never taxes the commit path for longer; one
// that was merely slow begins again on its next attempt.
func (p *Plane) ForwardCommit(ctx telemetry.SpanContext, object uint64, b *store.Batch) error {
	if p.active.Load() == 0 {
		return nil
	}
	sessions := p.relaysFor(object)
	if len(sessions) == 0 {
		return nil
	}
	batch := b.Encode()
	var firstErr error
	for _, s := range sessions {
		sc := s.key.scope
		// The relay runs under the recovery.forward fault site, keyed by
		// receiver address.
		err := injected(fault.SiteRecoveryForward, s.key.peer, MethodForward)
		if err == nil {
			frame := encodeForward(&forwardMsg{scoped: sc.scoped, object: object, batch: batch})
			_, err = p.call(ctx, s.key.peer, MethodForward, frame)
		}
		if err == nil {
			s.failingSince.Store(0)
			s.fwd.Add(1)
			p.m.forwards[sc.kind()].Inc()
			continue
		}
		s.gaps.Add(1)
		p.m.gaps[sc.kind()].Inc()
		now := time.Now().UnixNano()
		s.failingSince.CompareAndSwap(0, now)
		if time.Duration(now-s.failingSince.Load()) > p.failTimeout {
			// The receiver has been unreachable for the whole window. A
			// strict session was never admitted (admission retires it
			// first, under the commit guard's write lock), so dropping it
			// only abandons the transfer.
			p.end(s.key)
		} else if s.strict.Load() && firstErr == nil {
			firstErr = fmt.Errorf("recovery: strict forward to %s: %w", s.key.peer, err)
		}
	}
	return firstErr
}

// admit runs the epoch-fenced cutover for one strict replica session.
// Taking commitMu exclusively drains every in-flight ship+forward (each of
// which either reached the joiner or withheld its ack) and stalls new
// commits; the configuration change and the sender's directory refresh then
// happen inside the quiescent window, so the first commit after release
// ships to the joiner as a real backup. Object sessions take no part: a
// move commits through its own cutover.
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
	if err := p.opts.Admit(req.peer, req.epoch); err != nil {
		return err
	}
	p.end(s.key)
	return nil
}

// promote switches a replica session to strict forwarding. The flip happens
// before the reply: every commit whose forward starts after the joiner sees
// the response is strict, so a post-promote digest round certifies
// convergence.
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
