package recovery

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/replication"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// inbound is the receiver half of one session: the joiner's whole-replica
// session during a rejoin, or one inbound object during a move. Its life is
// openInbound → syncRange per range, with relays applied as they arrive →
// closeInbound. A lost relay ends the session at its sender, so neither
// orchestrator looks for what it left out: admission refuses the rejoin,
// the seal aborts the move.
//
// applyMu guards the session's ranges of the store: relays apply under it,
// and syncRange holds it across fetch+apply (not the throttle's sleep) so
// a rebuilt range is atomic with respect to relays of any object.
type inbound struct {
	p      *Plane
	sender string
	req    sessionReq            // this session's name at the sender
	trace  telemetry.SpanContext // the orchestrator's trace (zero when untraced)

	applyMu sync.Mutex
	last    atomic.Int64 // unix nanoseconds of the sender's last sign of life
	ended   bool         // reclaimed, or its copy deleted: a late relay is refused (applyMu)
}

// openInbound registers a session for the scope and then begins it at the
// sender. The order matters: the sender relays from the instant begin
// lands, and a relay that finds no session here is a gap. A scope holds
// one session at a time. A second move of an object can open at its source
// once a lost relay ended the first's session there; its offer is refused
// until move.end or the janitor settles the first's session here, whose
// last chunk may still land and whose move.end names only the object.
func (p *Plane) openInbound(sender string, sc scope, epoch uint64, trace telemetry.SpanContext) (*inbound, error) {
	s := &inbound{
		p:      p,
		sender: sender,
		req:    sessionReq{peer: p.selfAddr(), epoch: epoch, scope: sc},
		trace:  trace,
	}
	s.touch()
	p.imu.Lock()
	if p.inbound[sc] != nil {
		p.imu.Unlock()
		return nil, fmt.Errorf("recovery: already receiving %s", sc)
	}
	p.inbound[sc] = s
	p.imu.Unlock()
	if _, err := s.call(MethodBegin, encodeSessionReq(&s.req)); err != nil {
		p.closeInbound(s)
		return nil, fmt.Errorf("begin: %w", err)
	}
	return s, nil
}

// closeInbound retires s (a newer session for the same scope stays) and
// reports whether it was still registered.
func (p *Plane) closeInbound(s *inbound) bool {
	p.imu.Lock()
	defer p.imu.Unlock()
	if p.inbound[s.req.scope] != s {
		return false
	}
	delete(p.inbound, s.req.scope)
	return true
}

func (p *Plane) inboundFor(sc scope) *inbound {
	p.imu.Lock()
	defer p.imu.Unlock()
	return p.inbound[sc]
}

// forward applies one relayed frame's members in order, under applyMu, on
// arrival. The sender relays an object's commits one at a time (the group
// hook holds the object's scheduler lock across the relay), so per-object
// order is preserved, and a relay that lands before its range is rebuilt
// is overwritten by a snapshot that already holds it (DESIGN §11). The
// frame aliases the RPC request: it is applied before the handler returns.
func (s *inbound) forward(frame []byte) error {
	s.touch()
	var f replication.Frame
	if err := f.Decode(frame); err != nil {
		return err
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.ended {
		return fmt.Errorf("recovery: inbound %s session ended", s.req.scope)
	}
	for i, b := range f.Batches {
		if err := s.p.opts.Apply(f.Objects[i], b); err != nil {
			return err
		}
	}
	return nil
}

func (s *inbound) touch() { s.last.Store(time.Now().UnixNano()) }

// syncRange replaces the local [start, end) contents with the sender's,
// streaming bounded chunks. applyMu is held across the whole range so the
// rebuild is atomic with respect to relayed commits: a relay for this range
// either lands before the rebuild (and is overwritten by newer sender
// state) or after it (and is newer than the fetch snapshot). The
// first chunk's batch deletes every existing local key in the range, so
// keys the sender no longer has cannot survive: an empty fetch deletes the
// range.
func (s *inbound) syncRange(start, end []byte, object uint64) error {
	streamed := 0
	// A rejoin's throttle sleeps once the range is in, after the unlock
	// (deferred first, it runs last): relays never wait out the pacing.
	defer func() {
		if bps := s.p.opts.MaxBytesPerSec; bps > 0 && !s.req.scope.scoped {
			time.Sleep(time.Duration(float64(streamed) / float64(bps) * float64(time.Second)))
		}
	}()
	s.applyMu.Lock()
	defer s.applyMu.Unlock()

	stale, err := rangeKeys(s.p.opts.DB, start, end)
	if err != nil {
		return err
	}
	req := &fetchReq{sessionReq: s.req, start: start, end: end}
	for first := true; ; first = false {
		body, err := s.call(MethodFetch, encodeFetchReq(req))
		if err != nil {
			return err
		}
		resp, err := decodeFetchResp(body)
		if err != nil {
			return err
		}
		b := store.NewBatch()
		if first {
			for _, k := range stale {
				b.Delete(k)
			}
		}
		bytes := 0
		for i := range resp.keys {
			b.Put(resp.keys[i], resp.values[i])
			bytes += len(resp.keys[i]) + len(resp.values[i])
		}
		if !b.Empty() {
			if err := s.p.opts.Apply(object, b); err != nil {
				return err
			}
		}
		streamed += bytes
		s.p.m.chunks[s.req.scope.kind()].Inc()
		s.p.m.streamed[s.req.scope.kind()].Add(uint64(bytes))
		s.touch()
		if len(resp.next) == 0 {
			return nil
		}
		req.start = resp.next
	}
}

// deleteObjectRange deletes every committed key of the object's range in
// one batch through Apply (so the group's backups and catch-up sessions drop
// them too).
func (p *Plane) deleteObjectRange(object uint64) error {
	start, end := objectRange(object)
	keys, err := rangeKeys(p.opts.DB, start, end)
	if err != nil || len(keys) == 0 {
		return err
	}
	b := store.NewBatch()
	for _, k := range keys {
		b.Delete(k)
	}
	return p.opts.Apply(object, b)
}

// call issues one session RPC to the sender under the orchestrator's trace.
func (s *inbound) call(method string, body []byte) ([]byte, error) {
	return s.p.call(s.trace, s.sender, method, body)
}
