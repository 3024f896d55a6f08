// Package replication implements LambdaStore's primary-backup replication
// (paper §4.2.1). Mutating methods execute only at a shard's primary; the
// *results of the computation* — the committed write-set, not the inputs —
// are shipped synchronously to the backup replicas before the invocation
// reply is released, so a failover never loses an acknowledged write.
// Read-only methods may execute at any replica to increase throughput.
package replication

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// MethodApplyBatch ships N coalesced (object, write-set) pairs plus the
// primary's configuration epoch in one frame; the backup fences stale
// epochs and acks all members at once.
const MethodApplyBatch = "repl.applyBatch"

// ErrBackupFailed reports that one or more backups did not acknowledge a
// write-set.
var ErrBackupFailed = errors.New("replication: backup failed")

// ErrStaleEpoch is returned by a backup that receives a write-set stamped
// with a configuration epoch older than its own: the sender is a deposed
// primary and must not get its commit acknowledged.
var ErrStaleEpoch = errors.New("replication: stale configuration epoch")

// errShipperClosed fails in-flight ship requests during shutdown.
var errShipperClosed = errors.New("replication: shipper closed")

// applyMsg is one (object, write-set) member of a shipped frame.
type applyMsg struct {
	object uint64
	batch  store.Batch
}

// applyBatchMsg is the wire form of a coalesced ship frame: the sender's
// configuration epoch (0 = unfenced, for pre-epoch senders) followed by N
// (object, write-set) pairs, optionally followed by a lease renewal blob
// (granted TTL in microseconds + cumulative lane-enqueued entry count +
// the sender's clock at the grant), present only when a renewal rides along.
//
// A decoded message's write-sets alias the frame it was decoded from, and
// the backup handler recycles the message with its slices: both are good
// for the length of one handler call and no longer.
type applyBatchMsg struct {
	epoch uint64
	msgs  []applyMsg
	// lease renewal piggyback; leaseTTLUs == 0 means none present.
	leaseTTLUs   uint64
	leaseEnq     uint64
	leaseGrantNs uint64

	// objects and batches are msgs as an Applier takes them.
	objects []uint64
	batches []*store.Batch
}

// appendApplyBatch appends the frame carrying entries to dst.
func appendApplyBatch(dst []byte, epoch uint64, entries []*shipment, leaseTTLUs, leaseEnq, leaseGrantNs uint64) []byte {
	dst = wire.AppendUvarint(dst, epoch)
	dst = wire.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = wire.AppendUvarint(dst, e.object)
		dst = wire.AppendBytes(dst, e.data)
	}
	if leaseTTLUs > 0 {
		dst = wire.AppendUvarint(dst, leaseTTLUs)
		dst = wire.AppendUvarint(dst, leaseEnq)
		dst = wire.AppendUvarint(dst, leaseGrantNs)
	}
	return dst
}

// decode makes m the frame in body, reusing m's slices.
func (m *applyBatchMsg) decode(body []byte) error {
	r := wire.NewReader(body)
	*m = applyBatchMsg{epoch: r.Uvarint(), msgs: m.msgs[:0], objects: m.objects[:0], batches: m.batches[:0]}
	// A member is at least an object id and a write-set length.
	n := r.Count(2)
	m.msgs = slices.Grow(m.msgs, n)[:n]
	for i := range m.msgs {
		am := &m.msgs[i]
		am.object = r.Uvarint()
		raw := r.Bytes()
		if r.Err() != nil {
			break
		}
		if err := am.batch.Decode(raw); err != nil {
			return err
		}
	}
	if r.Len() > 0 {
		m.leaseTTLUs, m.leaseEnq, m.leaseGrantNs = r.Uvarint(), r.Uvarint(), r.Uvarint()
	}
	return r.ErrIn("replication: applyBatch")
}

// applyBatchPool recycles the backup handler's decoded frames.
var applyBatchPool = sync.Pool{New: func() any { return new(applyBatchMsg) }}

// maxPooledMembers is the largest frame whose slices a recycled message
// keeps: a burst that coalesced hundreds of write-sets must not pin its
// footprint in the pool.
const maxPooledMembers = 64

// release recycles m, dropping every reference into the handler's frame.
func (m *applyBatchMsg) release() {
	if cap(m.msgs) > maxPooledMembers {
		*m = applyBatchMsg{}
	}
	clear(m.msgs)
	clear(m.batches)
	applyBatchPool.Put(m)
}

// Shipper is the primary-side replication endpoint. Safe for concurrent
// use; write-sets of different objects ship concurrently (they commute),
// while per-object ordering is inherited from the object scheduler.
//
// Concurrent ships to the same backup coalesce: each backup has
// a send lane whose loop drains every queued write-set into one
// MethodApplyBatch frame, so N concurrent commits cost one RPC round trip
// instead of N. Acks release all member commits at once; a frame error
// fails every member, preserving "backup acked before client reply".
type Shipper struct {
	pool *rpc.Pool

	// epoch is the configuration epoch stamped on every shipped frame;
	// backups reject frames from older epochs (deposed primaries).
	epoch atomic.Uint64

	mu      sync.RWMutex
	backups []string
	// onFailure is invoked (outside the lock) when a backup rejects or
	// misses a write-set; the cluster layer reports it to the coordinator.
	onFailure func(addr string, err error)

	lanesMu     sync.Mutex
	lanes       map[string]*shipLane
	lanesClosed bool

	// leaseTTL > 0 arms read-lease granting: shipped frames carry a
	// renewal blob and the renewal loop keeps idle backups leased.
	leaseTTL  atomic.Int64
	renewOnce sync.Once
	renewStop chan struct{}
	// laneEnq counts write-set entries ever enqueued toward each backup
	// (the backup-side lag reference; survives lane recreation).
	laneEnqMu sync.Mutex
	laneEnq   map[string]uint64

	// shippedCtr counts acknowledged write-sets, failures counts backup
	// rejections, shipUs tracks fan-out latency, batchSize the member count
	// of each shipped frame.
	shippedCtr *telemetry.Counter
	failures   *telemetry.Counter
	shipUs     *telemetry.Histogram
	batchSize  *telemetry.Histogram
}

// NewShipper returns a shipper over the given connection pool, counting
// into the pool's registry (rpc.Pool.SetTelemetry; none is fine).
func NewShipper(pool *rpc.Pool, onFailure func(addr string, err error)) *Shipper {
	reg := pool.Registry()
	return &Shipper{
		pool: pool, onFailure: onFailure, renewStop: make(chan struct{}),
		shippedCtr: reg.Counter("repl.shipped"),
		failures:   reg.Counter("repl.backup_failures"),
		shipUs:     reg.Histogram("repl.ship"),
		batchSize:  reg.CountHistogram("repl.batch_size"),
	}
}

// SetLeaseTTL arms (ttl > 0) or disarms (ttl <= 0) read-lease granting.
// While armed, every shipped frame renews the receiving backup's lease
// and a background loop renews idle backups at TTL/4.
func (s *Shipper) SetLeaseTTL(ttl time.Duration) {
	if ttl < 0 {
		ttl = 0
	}
	s.leaseTTL.Store(int64(ttl))
	if ttl > 0 {
		s.renewOnce.Do(func() { go s.renewLoop() })
	}
}

// laneEnqAdd bumps addr's cumulative enqueued-entry count and returns
// the new value.
func (s *Shipper) laneEnqAdd(addr string, n int) uint64 {
	s.laneEnqMu.Lock()
	defer s.laneEnqMu.Unlock()
	if s.laneEnq == nil {
		s.laneEnq = make(map[string]uint64)
	}
	s.laneEnq[addr] += uint64(n)
	return s.laneEnq[addr]
}

// laneEnqGet reads addr's cumulative enqueued-entry count.
func (s *Shipper) laneEnqGet(addr string) uint64 {
	s.laneEnqMu.Lock()
	defer s.laneEnqMu.Unlock()
	return s.laneEnq[addr]
}

// renewLoop keeps every current backup's lease fresh while the group is
// idle; frames piggyback renewals on their own when writes flow. Send
// failures are ignored — the backup's lease simply expires and it
// bounces reads to the primary until renewals get through again.
func (s *Shipper) renewLoop() {
	for {
		ttl := time.Duration(s.leaseTTL.Load())
		if ttl <= 0 {
			ttl = 100 * time.Millisecond
		}
		select {
		case <-s.renewStop:
			return
		case <-time.After(ttl / 4):
		}
		ttl = time.Duration(s.leaseTTL.Load())
		epoch := s.epoch.Load()
		if ttl <= 0 || epoch == 0 {
			continue
		}
		for _, addr := range s.Backups() {
			go func(addr string) {
				// Stamp before the fault-plane delay: an injected renewal
				// delay models in-flight latency, which must eat into the
				// granted window rather than shift it.
				grantNs := uint64(time.Now().UnixNano())
				if fault.Enabled() {
					d := fault.Eval(fault.SiteLeaseRenew, addr)
					if d.Delay > 0 {
						time.Sleep(d.Delay)
					}
					if d.Err != nil || d.Drop {
						return
					}
				}
				body := encodeLease(leaseMsg{
					epoch:   epoch,
					ttlUs:   uint64(ttl / time.Microsecond),
					enq:     s.laneEnqGet(addr),
					grantNs: grantNs,
				})
				s.pool.Call(addr, MethodLease, body)
			}(addr)
		}
	}
}

// SetEpoch records the configuration epoch stamped on subsequent frames.
// Zero (the initial value) ships unfenced frames that any backup accepts.
func (s *Shipper) SetEpoch(epoch uint64) { s.epoch.Store(epoch) }

// Close stops the per-backup send lanes, failing any queued ships. Further
// ships to lanes fail with a closed error; callers should stop committing
// first.
func (s *Shipper) Close() {
	s.lanesMu.Lock()
	if s.lanesClosed {
		s.lanesMu.Unlock()
		return
	}
	s.lanesClosed = true
	lanes := s.lanes
	s.lanes = nil
	s.lanesMu.Unlock()
	close(s.renewStop)
	for _, l := range lanes {
		close(l.stop)
	}
}

// SetBackups replaces the backup set (reconfiguration).
func (s *Shipper) SetBackups(addrs []string) {
	s.mu.Lock()
	s.backups = append([]string(nil), addrs...)
	s.mu.Unlock()
}

// Backups returns the current backup set.
func (s *Shipper) Backups() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.backups...)
}

// Ship synchronously replicates one committed write-set to every backup.
// Failures are reported via the failure callback; the write-set is still
// considered durable if at least the primary holds it (the coordinator will
// reconfigure the group), so Ship returns the first error only for callers
// that want strict semantics.
func (s *Shipper) Ship(object uint64, b *store.Batch) error {
	return s.ShipCtx(telemetry.SpanContext{}, object, b)
}

// shipment is one write-set on its way to every backup: the pooled state of
// one ShipCtx call, queued on each backup's send lane. Every lane answers
// once on done, which is buffered to the fan-out so that none blocks.
type shipment struct {
	object uint64
	data   []byte // encoded batch
	ctx    telemetry.SpanContext
	done   chan shipAck
}

// shipAck is one backup's answer to a shipment.
type shipAck struct {
	addr string
	err  error
}

// shipmentPool recycles shipments with their buffers and channels.
var shipmentPool = sync.Pool{New: func() any { return new(shipment) }}

// maxPooledShipBytes is the largest encode buffer a shipment, and the
// largest frame buffer a lane, keeps for its next use.
const maxPooledShipBytes = 64 << 10

// retained empties a buffer for reuse, or drops it if it outgrew
// maxPooledShipBytes.
func retained(b []byte) []byte {
	if cap(b) > maxPooledShipBytes {
		return nil
	}
	return b[:0]
}

// shipLane is the per-backup send queue. A lane's loop drains all pending
// entries into one applyBatch frame per round trip.
type shipLane struct {
	addr string
	kick chan struct{} // buffered 1: "pending is non-empty"
	stop chan struct{}

	mu      sync.Mutex
	pending []*shipment
	closed  bool
}

func (l *shipLane) enqueue(e *shipment) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errShipperClosed
	}
	l.pending = append(l.pending, e)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return nil
}

// drain moves the pending queue into batch and, with closing set, closes
// the lane.
func (l *shipLane) drain(batch []*shipment, closing bool) []*shipment {
	l.mu.Lock()
	batch = append(batch[:0], l.pending...)
	clear(l.pending)
	l.pending = l.pending[:0]
	l.closed = l.closed || closing
	l.mu.Unlock()
	return batch
}

// lane returns (creating if needed) the send lane for addr, or nil after
// Close.
func (s *Shipper) lane(addr string) *shipLane {
	s.lanesMu.Lock()
	defer s.lanesMu.Unlock()
	if s.lanesClosed {
		return nil
	}
	if s.lanes == nil {
		s.lanes = make(map[string]*shipLane)
	}
	l := s.lanes[addr]
	if l == nil {
		l = &shipLane{addr: addr, kick: make(chan struct{}, 1), stop: make(chan struct{})}
		s.lanes[addr] = l
		go s.laneLoop(l)
	}
	return l
}

// laneLoop drains the lane: every wakeup takes the whole pending queue and
// ships it as one frame, so the batch size adapts to how many commits
// arrived during the previous round trip (group-commit shaped, like the WAL
// write queue). The queue copy and the frame are the loop's own and reused.
func (s *Shipper) laneLoop(l *shipLane) {
	var batch []*shipment
	var frame []byte
	answer := func(err error) {
		for _, e := range batch {
			e.done <- shipAck{l.addr, err}
		}
		clear(batch)
	}
	for {
		select {
		case <-l.stop:
			batch = l.drain(batch, true)
			answer(errShipperClosed)
			return
		case <-l.kick:
		}
		for {
			if batch = l.drain(batch, false); len(batch) == 0 {
				break
			}
			var err error
			frame, err = s.shipFrame(l.addr, frame[:0], batch)
			frame = retained(frame)
			answer(err)
		}
	}
}

// shipFrame sends one applyBatch frame carrying entries to addr, built in
// frame, which it returns for reuse. The trace context of the first entry
// parents the backup-side span.
func (s *Shipper) shipFrame(addr string, frame []byte, entries []*shipment) ([]byte, error) {
	if fault.Enabled() {
		d := fault.Eval(fault.SiteReplShip, addr)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Err != nil {
			return frame, d.Err
		}
		if d.Drop {
			// Silently lost write-set: the backup diverges while the
			// primary believes it shipped. This is the divergence probe —
			// only chaos experiments arm it.
			return frame, nil
		}
	}
	var ttlUs, enq, grantNs uint64
	epoch := s.epoch.Load()
	if ttl := time.Duration(s.leaseTTL.Load()); ttl > 0 && epoch != 0 {
		ttlUs = uint64(ttl / time.Microsecond)
		enq = s.laneEnqAdd(addr, len(entries))
		// Stamped at send so the backup measures expiry from our clock:
		// any time this frame spends in flight is burned off the lease.
		grantNs = uint64(time.Now().UnixNano())
	}
	// The rpc client copies the body into its connection buffer before
	// CallCtx returns, so the frame is free to reuse afterwards.
	frame = appendApplyBatch(frame, epoch, entries, ttlUs, enq, grantNs)
	_, err := s.pool.CallCtx(addr, entries[0].ctx, MethodApplyBatch, frame)
	s.batchSize.Observe(uint64(len(entries)))
	return frame, err
}

// ShipCtx is Ship carrying the committing request's trace context, so the
// backup-side apply spans join the caller's trace. The write-set is encoded
// before ShipCtx returns; b is the caller's again afterwards.
func (s *Shipper) ShipCtx(ctx telemetry.SpanContext, object uint64, b *store.Batch) error {
	s.mu.RLock()
	backups := s.backups
	s.mu.RUnlock()
	if len(backups) == 0 {
		return nil
	}
	start := time.Now()
	sh := shipmentPool.Get().(*shipment)
	sh.object, sh.ctx = object, ctx
	sh.data = b.AppendTo(sh.data)
	if cap(sh.done) < len(backups) {
		sh.done = make(chan shipAck, len(backups))
	}

	// Fan the write-set out to every backup's lane and collect one answer
	// per backup.
	for _, addr := range backups {
		err := errShipperClosed
		if lane := s.lane(addr); lane != nil {
			err = lane.enqueue(sh)
		}
		if err != nil {
			sh.done <- shipAck{addr, err}
		}
	}
	var firstErr error
	for range backups {
		ack := <-sh.done
		if ack.err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("%w: %s: %v", ErrBackupFailed, ack.addr, ack.err)
		}
		if s.onFailure != nil {
			s.onFailure(ack.addr, ack.err)
		}
		s.failures.Inc()
	}
	// Every lane has answered, so none refers to the shipment any more.
	*sh = shipment{data: retained(sh.data), done: sh.done}
	shipmentPool.Put(sh)
	s.shipUs.Record(time.Since(start))
	if firstErr == nil {
		s.shippedCtr.Inc()
	}
	return firstErr
}

// Applier is the backup-side sink for one shipped frame: its members'
// objects and write-sets, in frame order (core.Runtime.ApplyReplicatedBulk
// commits them as one storage write — one WAL append, one fsync). The
// slices and the batches alias the request frame and are recycled with it:
// an applier writes them to its store before returning and keeps nothing.
type Applier func(objects []uint64, batches []*store.Batch) error

// ApplierFunc makes an Applier of a per-write-set apply: it applies a
// frame's members in order and stops at the first error.
func ApplierFunc(fn func(object uint64, b *store.Batch) error) Applier {
	return func(objects []uint64, batches []*store.Batch) error {
		for i, b := range batches {
			if err := fn(objects[i], b); err != nil {
				return err
			}
		}
		return nil
	}
}

// RegisterBackup registers the backup-side apply handler with no
// observability, epoch fence or read lease (the disaggregated baseline's
// storage node). db is unused; the parameter stays because the frozen
// benchmark compiles against this signature.
func RegisterBackup(srv *rpc.Server, db *store.DB, applier Applier) {
	RegisterBackupLeased(srv, applier, nil, nil, nil, nil)
}

// RegisterBackupLeased registers the backup-side applyBatch handler; every
// argument after applier may be nil. Applied write-sets are counted in reg
// ("repl.applied") and each frame records a "repl.applyBatch" span in
// tracer, parented to the primary's replicate span. localEpoch reports this
// node's configuration epoch: a frame stamped with an older non-zero epoch
// is rejected with ErrStaleEpoch and counted ("repl.stale_epoch") — a
// deposed primary cannot get a write acknowledged after its group has been
// reconfigured (DESIGN.md §8). With a read-lease holder, frames feed its
// applied counter and any piggybacked renewal blob, and the standalone
// MethodLease renewal handler is registered too.
func RegisterBackupLeased(srv *rpc.Server, applier Applier, tracer *telemetry.Tracer, reg *telemetry.Registry, localEpoch func() uint64, holder *LeaseHolder) {
	applied, stale := reg.Counter("repl.applied"), reg.Counter("repl.stale_epoch")
	srv.HandleCtx(MethodApplyBatch, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		sp := tracer.StartSpan(info.Trace, "repl.applyBatch")
		msg := applyBatchPool.Get().(*applyBatchMsg)
		defer msg.release()
		err := msg.decode(body)
		if err != nil {
			sp.FinishErr(err)
			return nil, err
		}
		// Fence before applying anything: a frame from a deposed primary
		// (epoch older than ours) must not land a single write-set.
		// Epoch 0 marks an unfenced sender and is always accepted.
		if msg.epoch != 0 && localEpoch != nil {
			if local := localEpoch(); msg.epoch < local {
				err := fmt.Errorf("%w: shipped epoch %d < local epoch %d", ErrStaleEpoch, msg.epoch, local)
				stale.Inc()
				sp.FinishErr(err)
				return nil, err
			}
		}
		// The frame's members are write-sets of distinct objects
		// (same-object write-sets are serialized by the primary's object
		// scheduler, so one frame never carries two); the applier gets the
		// whole frame.
		for i := range msg.msgs {
			msg.objects = append(msg.objects, msg.msgs[i].object)
			msg.batches = append(msg.batches, &msg.msgs[i].batch)
		}
		if err = applier(msg.objects, msg.batches); err != nil {
			// The whole frame fails: the ack is withheld for every member,
			// so no primary releases a client reply for a write-set this
			// backup does not hold.
			sp.FinishErr(err)
			return nil, err
		}
		// Lease bookkeeping strictly after a successful apply: the frame's
		// entries are now visible locally (and its caches invalidated), so
		// counting them applied — and honoring any piggybacked renewal —
		// can never let a read race ahead of the data it covers.
		holder.NoteApplied(len(msg.msgs))
		if msg.leaseTTLUs > 0 {
			holder.Renew(leaseMsg{epoch: msg.epoch, ttlUs: msg.leaseTTLUs, enq: msg.leaseEnq, grantNs: msg.leaseGrantNs})
		}
		applied.Add(uint64(len(msg.msgs)))
		sp.Finish()
		return nil, nil
	})
	if holder != nil {
		registerLease(srv, holder)
	}
}
