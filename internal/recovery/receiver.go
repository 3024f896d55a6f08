package recovery

import (
	"fmt"
	"sync"
	"time"

	"lambdastore/internal/replication"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// inbound is the receiver half of one session: the joiner's whole-replica
// session during a rejoin, or one inbound object during a move. Its life is
// openInbound → syncRange per range → goLive → one digest check by its
// orchestrator, re-pulling what differs → closeInbound.
//
// modeMu guards the relay path's mode and buffer: while buffering, relayed
// frames queue in memory — an append, so the sender's relay RPC returns
// immediately even while the initial transfer streams (its writes never
// stall behind it). applyMu guards the session's ranges of the store: live
// relays apply under it, and syncRange holds it across fetch+apply so a
// rebuilt range is atomic with respect to relays (in live mode the sender's
// relay RPC briefly waits out the one range being rebuilt). goLive takes
// modeMu then applyMu — the only place both are held.
type inbound struct {
	p      *Plane
	sender string
	req    sessionReq            // this session's name at the sender
	trace  telemetry.SpanContext // the orchestrator's trace (zero when untraced)

	modeMu    sync.Mutex
	applyMu   sync.Mutex
	buffering bool
	buffer    [][]byte  // relayed frames, in arrival order
	last      time.Time // last sign of life from the sender (modeMu)
	ended     bool      // endInbound deleted the copy: a late relay must not re-create keys (applyMu)
}

// openInbound registers a buffering session for the scope — replacing any
// abandoned one — and then begins it at the sender. The order matters: the
// sender relays from the instant begin lands, and a relay that finds no
// session here is a gap.
func (p *Plane) openInbound(sender string, sc scope, epoch uint64, trace telemetry.SpanContext) (*inbound, error) {
	s := &inbound{
		p:         p,
		sender:    sender,
		req:       sessionReq{peer: p.selfAddr(), epoch: epoch, scope: sc},
		trace:     trace,
		buffering: true,
		last:      time.Now(),
	}
	p.imu.Lock()
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

// forward buffers or applies one relayed frame.
func (s *inbound) forward(frame []byte) error {
	s.modeMu.Lock()
	s.last = time.Now()
	if s.buffering {
		// The frame aliases the RPC request, whose backing buffer the server
		// recycles once the handler returns; a buffered frame outlives
		// that, so it needs its own copy. (The live branch below applies
		// before returning, so the alias is safe there.)
		s.buffer = append(s.buffer, append([]byte(nil), frame...))
		s.modeMu.Unlock()
		return nil
	}
	s.modeMu.Unlock()
	// Live: apply under the store lock. The sender relays an object's
	// commits one at a time (the group hook runs while the object's
	// scheduler lock is held), so per-object order is preserved.
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.ended {
		return fmt.Errorf("recovery: inbound %s session ended", s.req.scope)
	}
	return s.apply(frame)
}

// apply commits one relayed frame's members in order (applyMu held).
func (s *inbound) apply(frame []byte) error {
	var f replication.Frame
	if err := f.Decode(frame); err != nil {
		return err
	}
	for i, b := range f.Batches {
		if err := s.p.opts.Apply(f.Objects[i], b); err != nil {
			return err
		}
	}
	return nil
}

// goLive replays the buffered relays in arrival order and switches forward
// to immediate apply, atomically: both locks are held, so no relay can slip
// between the drain and the mode flip — a commit is never applied before
// the chunk it follows.
func (s *inbound) goLive() error {
	s.modeMu.Lock()
	defer s.modeMu.Unlock()
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	pending := s.buffer
	s.buffer, s.buffering = nil, false
	for _, frame := range pending {
		if err := s.apply(frame); err != nil {
			return err
		}
	}
	return nil
}

func (s *inbound) touch() {
	s.modeMu.Lock()
	s.last = time.Now()
	s.modeMu.Unlock()
}

// syncRange replaces the local [start, end) contents with the sender's,
// streaming bounded chunks. applyMu is held across the whole range so the
// rebuild is atomic with respect to live relayed commits: a relay for this
// range either lands before the rebuild (and is overwritten by newer sender
// state) or after it (and is newer than the fetch snapshot). The
// first chunk's batch deletes every existing local key in the range, so
// keys the sender no longer has cannot survive: an empty fetch deletes the
// range.
func (s *inbound) syncRange(start, end []byte, object uint64) error {
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
		s.p.m.chunks[s.req.scope.kind()].Inc()
		s.p.m.streamed[s.req.scope.kind()].Add(uint64(bytes))
		s.touch()
		if bps := s.p.opts.MaxBytesPerSec; bps > 0 && !s.req.scope.scoped {
			time.Sleep(time.Duration(float64(bytes) / float64(bps) * float64(time.Second)))
		}
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
