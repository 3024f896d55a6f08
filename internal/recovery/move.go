package recovery

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// The move orchestrator (DESIGN.md "State transfer", §13): a live object
// move is an object-scoped session driven by the source primary. The source
// makes two calls on the target group's primary; the rest is the shared
// protocol, with the target as receiver and the source as sender.
//
//	move.offer  the target opens an inbound session and pulls the object's
//	            range from the source; the source's commits are relayed to
//	            it from the moment its begin lands.
//	move.end    after the cutover (or an abort) the target retires the
//	            session and keeps its copy iff the directory maps the object
//	            to its group; its janitor settles an abandoned session the
//	            same way.
//
// The seal between them: once the source holds the object's admission,
// every commit to it has finished its relay, so the target holds the
// frozen range iff no relay to it failed and its session is still open —
// which one empty relay confirms (and touches).

// Move RPC method names (served by the target group's primary).
const (
	MethodMoveOffer = "move.offer"
	MethodMoveEnd   = "move.end"
)

// moveEndReq retires the session; dir, when non-empty, is the source's
// post-cutover directory snapshot (a view fast-forward).
type moveEndReq struct {
	object uint64
	dir    []byte
}

func encodeMoveEnd(q *moveEndReq) []byte {
	return wire.AppendBytes(wire.AppendUvarint(nil, q.object), q.dir)
}

func decodeMoveEnd(body []byte) (*moveEndReq, error) {
	r := wire.NewReader(body)
	q := &moveEndReq{object: r.Uvarint(), dir: r.Bytes()}
	return q, r.ErrIn("recovery: move end")
}

// Move transfers one object to the target group's primary and commits the
// directory cutover. It blocks until the move completes or aborts; on abort
// the object keeps serving at the source.
func (p *Plane) Move(object uint64, targetAddr string, targetGroup uint64) (err error) {
	if !p.isPrimary() || !p.owns(object) {
		return fmt.Errorf("recovery: this node is not the primary serving object %d", object)
	}
	start := time.Now()
	root := p.opts.Tracer.StartSpan(telemetry.SpanContext{}, "move")
	defer func() { root.FinishErr(err) }()
	call := func(method string, body []byte) error {
		_, err := p.call(root.Context(), targetAddr, method, body)
		return err
	}

	out, err := p.openOutbound(sessionKey{peer: targetAddr, scope: objectScope(object)})
	if err != nil {
		return err
	}
	p.m.started.Inc()
	var release func()
	var restore func() error
	defer func() {
		p.end(out)
		if err == nil {
			return
		}
		// Abort: the object keeps serving here. The header comes back
		// before the admission is released, so queued invocations find it.
		if restore != nil {
			if rerr := restore(); rerr != nil { // the node takes the mark back later
				err = errors.Join(err, fmt.Errorf("restore: %w", rerr))
			}
		}
		if release != nil {
			release()
		}
		p.m.aborted.Inc()
		_ = call(MethodMoveEnd, encodeMoveEnd(&moveEndReq{object: object}))
	}()

	// The target pulls the range; commits keep flowing here and are relayed
	// from the moment its begin lands.
	if err := call(MethodMoveOffer, encodeSessionReq(&sessionReq{peer: p.selfAddr(), scope: out.key.scope})); err != nil {
		return fmt.Errorf("offer: %w", err)
	}

	// Quiesce: drain in-flight invocations by taking the object's
	// admission in its lock table; new ones queue behind it.
	blackout := time.Now()
	if release, err = p.opts.LockObject(object); err != nil {
		return fmt.Errorf("quiesce: %w", err)
	}
	// Another move of the object may have ended its session, frozen, cut
	// over and released the object while this one waited for it.
	if !p.owns(object) {
		return fmt.Errorf("quiesce: object %d moved away meanwhile", object)
	}

	// Seal (the group hook holds the object's lock across its relay): a
	// failed relay ended this very session, whatever a later move of the
	// object registered under its key since. The target's janitor reclaims
	// a session nothing touched for MoveSessionTimeout — no write since the
	// pull, a long wait for the admission — so an empty relay confirms it.
	// Any failure aborts; the operator's retry opens a fresh session.
	if !p.registered(out) {
		return fmt.Errorf("seal: a relayed write failed to reach %s", targetAddr)
	}
	if err := call(MethodForward, encodeRelay(&sessionReq{peer: targetAddr, scope: out.key.scope}, new(store.Group))); err != nil {
		return fmt.Errorf("seal: %w", err)
	}

	// Freeze: end the session (the target's copy keeps the real header),
	// then mark the object moved at every replica of this group, whatever
	// its view or lease: the target may ack the moment it installs the
	// cutover.
	p.end(out)
	if restore, err = p.opts.Freeze(object, targetGroup); err != nil {
		return fmt.Errorf("freeze: %w", err)
	}

	// Cutover — the commit point. After this the directory says the target
	// owns the object; a failure before it leaves the source the owner.
	// Either way exactly one group serves the object.
	if err := p.opts.CutOver(object, targetGroup); err != nil {
		return fmt.Errorf("cutover: %w", err)
	}

	// Delete the moved range here, on this group's backups and at any
	// joiner catching up (the move committed: a failed delete leaves
	// garbage, it does not abort), but for the header: its mark answers a
	// replica's lagging view with a redirect until a move back's first
	// chunk deletes it.
	_ = p.deleteObjectRange(object, true)
	p.m.blackoutH.Record(time.Since(blackout))
	release()
	release = nil

	// Best effort: if this is lost the target's janitor retires the session
	// by checking the directory, which now names it the owner.
	_ = call(MethodMoveEnd, encodeMoveEnd(&moveEndReq{object: object, dir: p.opts.Directory().Snapshot()}))
	p.m.completed.Inc()
	p.m.moveH.Record(time.Since(start))
	return nil
}

// offer serves move.offer: open the inbound session and pull the object's
// range (the first chunk deletes whatever an abandoned earlier attempt left
// behind).
func (p *Plane) offer(trace telemetry.SpanContext, source string, object uint64) error {
	if p.owns(object) {
		return fmt.Errorf("recovery: refusing inbound move of object %d: this group already owns it", object)
	}
	s, err := p.openInbound(source, objectScope(object), 0, trace)
	if err != nil {
		return err
	}
	start, end := objectRange(object)
	if err = s.syncRange(start, end, object); err != nil {
		// Reclaim now rather than waiting out the janitor.
		_ = p.endInbound(s)
	}
	return err
}

// endInbound retires an inbound move session and settles its copy: kept iff
// the directory maps the object to this group — after a committed cutover,
// however the news arrived — and deleted (here and on the backups)
// otherwise.
func (p *Plane) endInbound(s *inbound) error {
	if !p.closeInbound(s) {
		return nil
	}
	object := s.req.scope.object
	if p.owns(object) {
		p.m.received.Inc()
		return nil
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.ended = true
	return p.deleteObjectRange(object, false)
}

// janitor reclaims inbound move sessions whose source went quiet.
func (p *Plane) janitor() {
	defer p.loops.Done()
	for p.sleep(p.opts.MoveSessionTimeout / 4) {
		cutoff := time.Now().Add(-p.opts.MoveSessionTimeout).UnixNano()
		var stale []*inbound
		p.imu.Lock()
		for sc, s := range p.inbound {
			if sc.scoped && s.last.Load() < cutoff {
				stale = append(stale, s)
			}
		}
		p.imu.Unlock()
		sort.Slice(stale, func(i, j int) bool { return stale[i].req.scope.object < stale[j].req.scope.object })
		for _, s := range stale {
			// Re-check under applyMu, where forward answers: a relay that
			// touched the session since (a move's seal) keeps it.
			s.applyMu.Lock()
			idle := s.last.Load() < cutoff
			if idle {
				s.ended = true
			}
			s.applyMu.Unlock()
			if idle {
				p.m.reclaimed.Inc()
				_ = p.endInbound(s) // a failed delete leaves garbage the next inbound move's first chunk sweeps
			}
		}
	}
}
