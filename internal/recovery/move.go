package recovery

import (
	"fmt"
	"sort"
	"time"

	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// The move orchestrator (DESIGN.md "State transfer", §13): a live object
// move is an object-scoped session driven by the source primary. The source
// makes three calls on the target group's primary; the rest is the shared
// protocol, with the target as receiver and the source as sender.
//
//	move.offer  the target opens an inbound session, pulls the object's
//	            range from the source and goes live.
//	move.seal   under the source's fence and admission, the target compares
//	            its copy with the source's digest of the frozen range and
//	            re-pulls until equal.
//	move.end    after the cutover (or an abort) the target retires the
//	            session and keeps its copy iff the directory maps the object
//	            to its group; its janitor settles an abandoned session the
//	            same way.

// Move RPC method names (served by the target group's primary).
const (
	MethodMoveOffer = "move.offer"
	MethodMoveSeal  = "move.seal"
	MethodMoveEnd   = "move.end"
)

// moveSealReq carries the source's digest of the frozen range.
type moveSealReq struct {
	object uint64
	digest uint64
}

func encodeMoveSeal(q *moveSealReq) []byte {
	return wire.AppendUint64(wire.AppendUvarint(nil, q.object), q.digest)
}

func decodeMoveSeal(body []byte) (*moveSealReq, error) {
	r := wire.NewReader(body)
	q := &moveSealReq{object: r.Uvarint(), digest: r.Uint64()}
	return q, r.ErrIn("recovery: move seal")
}

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

	key := sessionKey{peer: targetAddr, scope: objectScope(object)}
	if err := p.openOutbound(key); err != nil {
		return err
	}
	p.m.started.Inc()
	var release func()
	defer func() {
		p.end(key)
		if err == nil {
			return
		}
		// Abort: the object keeps serving here. Unfence (a no-op before the
		// fence went up) before releasing the admission, so queued
		// invocations find the route open.
		p.opts.Unfence(object)
		if release != nil {
			release()
		}
		p.m.aborted.Inc()
		_ = call(MethodMoveEnd, encodeMoveEnd(&moveEndReq{object: object}))
	}()

	// The target pulls the range and goes live; commits keep flowing here
	// and are relayed from the moment its begin lands.
	if err := call(MethodMoveOffer, encodeSessionReq(&sessionReq{peer: p.selfAddr(), scope: key.scope})); err != nil {
		return fmt.Errorf("offer: %w", err)
	}

	// Quiesce: fence first so routing rejects ahead of the admission
	// queue, then drain in-flight invocations by taking the admission.
	p.opts.Fence(object, targetAddr)
	blackout := time.Now()
	if release, err = p.opts.LockObject(object); err != nil {
		return fmt.Errorf("quiesce: %w", err)
	}

	// Seal: the range is frozen and every forward has been answered, so the
	// target's copy must equal ours; it re-pulls until it does.
	local, err := objectDigest(p.opts.DB, object)
	if err != nil {
		return fmt.Errorf("seal digest: %w", err)
	}
	if err := call(MethodMoveSeal, encodeMoveSeal(&moveSealReq{object: object, digest: local})); err != nil {
		return fmt.Errorf("seal: %w", err)
	}

	// Cutover — the commit point. After this the directory says the target
	// owns the object; a failure before it leaves the source the owner.
	// Either way exactly one group serves the object.
	if err := p.opts.CutOver(object, targetGroup); err != nil {
		return fmt.Errorf("cutover: %w", err)
	}

	// Delete the moved range here and on this group's backups (the move
	// committed: a failed delete leaves garbage, it does not abort). The
	// fence stays up: it self-clears when this node's view maps the object
	// elsewhere, and until then it shields stale-view replicas.
	_ = p.deleteObjectRange(object)
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

// offer serves move.offer: open the inbound session, pull the object's
// range (the first chunk deletes whatever an abandoned earlier attempt left
// behind) and go live.
func (p *Plane) offer(trace telemetry.SpanContext, source string, object uint64) error {
	if p.owns(object) {
		return fmt.Errorf("recovery: refusing inbound move of object %d: this group already owns it", object)
	}
	// A fence this node raised when it last moved the object away has done
	// its job (the view maps the object elsewhere); it must not outlive the
	// object's return.
	p.opts.Unfence(object)
	s, err := p.openInbound(source, objectScope(object), 0, trace)
	if err != nil {
		return err
	}
	start, end := objectRange(object)
	if err = s.syncRange(start, end, object); err == nil {
		err = s.goLive()
	}
	if err != nil {
		// Reclaim now rather than waiting out the janitor.
		_ = p.endInbound(s)
	}
	return err
}

// seal serves move.seal: the source holds the object's admission, so the
// copy here is final once any in-flight forward has applied (applyMu).
// Compare it with the source's digest; on a mismatch — a forward was lost —
// re-pull the frozen range and compare again.
func (p *Plane) seal(req *moveSealReq) error {
	s := p.inboundFor(objectScope(req.object))
	if s == nil {
		return fmt.Errorf("recovery: no inbound move session for object %d", req.object)
	}
	s.touch()
	start, end := objectRange(req.object)
	for round := 0; ; round++ {
		s.applyMu.Lock()
		dig, err := objectDigest(p.opts.DB, req.object)
		s.applyMu.Unlock()
		if err != nil || dig == req.digest {
			return err
		}
		if round == sealRounds {
			return fmt.Errorf("recovery: move of object %d never sealed after %d re-pulls", req.object, sealRounds)
		}
		p.m.sealRepulls.Inc()
		if err := s.syncRange(start, end, req.object); err != nil {
			return fmt.Errorf("re-pull: %w", err)
		}
	}
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
	return p.deleteObjectRange(object)
}

// janitor reclaims inbound move sessions whose source went quiet.
func (p *Plane) janitor() {
	defer p.loops.Done()
	for p.sleep(p.opts.MoveSessionTimeout / 4) {
		cutoff := time.Now().Add(-p.opts.MoveSessionTimeout)
		var stale []*inbound
		p.imu.Lock()
		for sc, s := range p.inbound {
			s.modeMu.Lock()
			if sc.scoped && s.last.Before(cutoff) {
				stale = append(stale, s)
			}
			s.modeMu.Unlock()
		}
		p.imu.Unlock()
		sort.Slice(stale, func(i, j int) bool { return stale[i].req.scope.object < stale[j].req.scope.object })
		for _, s := range stale {
			p.m.reclaimed.Inc()
			_ = p.endInbound(s) // a failed delete leaves garbage the next inbound move's first chunk sweeps
		}
	}
}
