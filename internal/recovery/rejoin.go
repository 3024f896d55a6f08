package recovery

import (
	"fmt"
	"slices"
	"time"

	"lambdastore/internal/telemetry"
)

// State is the joiner's rejoin state machine (DESIGN.md §11):
//
//	idle → syncing → cutover → member
//
// with any failure resetting to syncing after a retry delay, and a
// later eviction (the member dies again) resetting to idle → syncing.
type State int32

const (
	StateIdle State = iota
	StateSyncing
	StateCutover
	StateMember
)

func (s State) String() string {
	return [...]string{"idle", "syncing", "cutover", "member"}[s]
}

// rejoinLoop is the rejoin orchestrator: it watches the configuration, and
// whenever this node is not a member of its group (and a primary exists to
// donate), runs one whole-replica session against that primary.
func (p *Plane) rejoinLoop() {
	defer p.loops.Done()
	for {
		delay := retryDelay
		if p.stepOnce() {
			// Member (or nothing to do): watch at the poll cadence.
			delay = pollInterval
		}
		if !p.sleep(delay) {
			return
		}
	}
}

// stepOnce inspects the configuration and, if this node is out of its
// group, runs one sync attempt. It returns true when there is nothing
// to retry (member, primary, or no usable configuration yet).
func (p *Plane) stepOnce() bool {
	d := p.opts.Directory()
	g, ok := p.myGroup(d)
	if !ok || g.Primary == "" {
		p.state.Store(int32(StateIdle))
		return true
	}
	if slices.Contains(g.Replicas(), p.selfAddr()) {
		p.state.Store(int32(StateMember))
		return true
	}
	p.attempts.Add(1)
	if err := p.syncOnce(g.Primary, d.Epoch()); err != nil {
		msg := err.Error()
		p.lastErr.Store(&msg)
		p.state.Store(int32(StateSyncing))
		return false
	}
	return true
}

// syncOnce runs one full session: begin → buffered transfer → drain →
// strict promote → certifying round → admit → membership. When tracing is
// on the whole session is one trace rooted at a "rejoin" span.
func (p *Plane) syncOnce(sender string, epoch uint64) (err error) {
	start := time.Now()
	p.senderAddr.Store(&sender)
	p.state.Store(int32(StateSyncing))
	root := p.opts.Tracer.StartSpan(telemetry.SpanContext{}, "rejoin")
	defer func() { root.FinishErr(err) }()

	s, err := p.openInbound(sender, scope{}, epoch, root.Context())
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			// Stop the relay before retiring the session it relays into, so
			// a strict forward never fails (and withholds a client's ack)
			// against a session that merely gave up. Best effort: a dead
			// sender keeps no session anyway.
			s.call(MethodEnd, encodeSessionReq(&s.req)) //nolint:errcheck
		}
		p.closeInbound(s)
	}()

	// Initial transfer while forwards buffer.
	if err := p.round(s); err != nil {
		return fmt.Errorf("transfer: %w", err)
	}
	// Replay the buffered commit stream and go live.
	if err := s.goLive(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	// Strict forwarding: from here every sender commit either reaches us
	// or is never acknowledged.
	if _, err := s.call(MethodPromote, encodeSessionReq(&s.req)); err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	// The certifying round: under strict relaying, one digest round leaves
	// this store equal to the sender's, and every later commit reaches it
	// or is never acknowledged (DESIGN §11). A strict relay that fails from
	// here on is a gap this round does not see; admission refuses it.
	if err := p.round(s); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	// Caught up. Epoch-fenced cutover: the sender proposes the config change
	// and refreshes its shipping fan-out under its commit fence.
	p.state.Store(int32(StateCutover))
	_, admitErr := s.call(MethodAdmit, encodeSessionReq(&s.req))
	// Await membership in our own view even when admit errored: the
	// proposal may have landed before the sender's reply was lost.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g, ok := p.myGroup(p.opts.Directory()); ok && slices.Contains(g.Replicas(), p.selfAddr()) {
			break
		}
		if time.Now().After(deadline) {
			if admitErr != nil {
				return fmt.Errorf("admit: %w", admitErr)
			}
			return fmt.Errorf("admitted but membership never reached this node's view")
		}
		if !p.sleep(25 * time.Millisecond) {
			return fmt.Errorf("closing")
		}
	}
	p.state.Store(int32(StateMember))
	p.rejoins.Add(1)
	dur := time.Since(start)
	p.lastRejoin.Store(uint64(dur.Microseconds()))
	p.m.rejoinH.Record(dur)
	return nil
}

// round runs one digest round against the sender: this store's bucket
// folds and meta digest go out, the sender diffs them inside its own scan
// and lists the objects it holds in the buckets that differ, and every
// range that differs on either side is re-pulled (an empty pull deletes
// it), so only what diverges streams.
func (p *Plane) round(s *inbound) error {
	local, err := BuildDigest(p.opts.DB, DefaultBuckets)
	if err != nil {
		return err
	}
	req := &digestReq{sessionReq: s.req, buckets: local.Buckets, meta: local.Meta}
	body, err := s.call(MethodDigest, encodeDigestReq(req))
	if err != nil {
		return err
	}
	remote, err := decodeDigestResp(body)
	if err != nil {
		return err
	}
	if local.Meta != remote.meta {
		if err := s.syncRange(nil, metaRangeEnd(), 0); err != nil {
			return err
		}
		if err := p.opts.ReloadTypes(); err != nil {
			return err
		}
	}
	ids := ObjectDiff(local, remote.buckets, remote.ids, remote.digests)
	p.m.diverged.Add(uint64(len(ids)))
	for _, id := range ids {
		start, end := objectRange(id)
		if err := s.syncRange(start, end, id); err != nil {
			return err
		}
	}
	return nil
}

// Status is the rejoin state machine as shown by /recovery and lambdactl
// recovery.
type Status struct {
	Self              string  `json:"self"`
	State             string  `json:"state"`
	Donor             string  `json:"donor,omitempty"`
	Attempts          uint64  `json:"attempts"`
	Rejoins           uint64  `json:"rejoins"`
	LastError         string  `json:"last_error,omitempty"`
	LastRejoinSeconds float64 `json:"last_rejoin_seconds"`
	RangesDiverged    uint64  `json:"ranges_diverged"`
	BytesStreamed     uint64  `json:"bytes_streamed"`
	ChunksApplied     uint64  `json:"chunks_applied"`
}

// Status snapshots the state machine.
func (p *Plane) Status() Status {
	return Status{
		Self:              p.selfAddr(),
		State:             p.State().String(),
		Donor:             *p.senderAddr.Load(),
		LastError:         *p.lastErr.Load(),
		Attempts:          p.attempts.Load(),
		Rejoins:           p.rejoins.Load(),
		LastRejoinSeconds: float64(p.lastRejoin.Load()) / 1e6,
		RangesDiverged:    p.m.diverged.Value(),
		BytesStreamed:     p.m.streamed[0].Value(),
		ChunksApplied:     p.m.chunks[0].Value(),
	}
}

// State returns the current state machine position.
func (p *Plane) State() State { return State(p.state.Load()) }
