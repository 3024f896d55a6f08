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

	"lambdastore/internal/gopool"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// MethodApplyBatch ships one write group's members, as the primary's WAL
// logged them, in one frame; the backup fences stale epochs and acks all
// members at once.
const MethodApplyBatch = "repl.applyBatch"

// ErrBackupFailed reports that one or more backups did not acknowledge a
// write-set.
var ErrBackupFailed = errors.New("replication: backup failed")

// ErrStaleEpoch is returned by a backup that receives a write-set stamped
// with a configuration epoch older than its own: the sender is a deposed
// primary and must not get its commit acknowledged.
var ErrStaleEpoch = errors.New("replication: stale configuration epoch")

// Frame is a decoded applyBatch frame: the sender's configuration epoch (0 =
// unfenced) and N (object, write-set) members. It carries no lease state:
// grants travel on MethodLease alone. A state-transfer relay forwards the
// same frame, unfenced. Its write-sets alias the bytes it was decoded from,
// and Decode reuses its slices.
type Frame struct {
	Epoch   uint64
	Objects []uint64
	Batches []*store.Batch

	sets []store.Batch // what Batches point into
}

// Decode makes f the frame in body.
func (f *Frame) Decode(body []byte) error {
	r := wire.NewReader(body)
	f.Epoch = r.Uvarint()
	// A member is at least an object id and a write-set length.
	n := r.Count(2)
	f.Objects = slices.Grow(f.Objects[:0], n)[:n]
	f.sets = slices.Grow(f.sets[:0], n)[:n]
	f.Batches = f.Batches[:0]
	for i := range f.sets {
		f.Objects[i] = r.Uvarint()
		raw := r.Bytes()
		if r.Err() != nil {
			break
		}
		if err := f.sets[i].Decode(raw); err != nil {
			return err
		}
		f.Batches = append(f.Batches, &f.sets[i])
	}
	return r.ErrIn("replication: applyBatch")
}

// AppendFrame appends to dst the frame carrying the members of g whose
// object keep accepts (every member for a nil keep), unfenced: what a
// state-transfer relay forwards.
func AppendFrame(dst []byte, g *store.Group, keep func(object uint64) bool) []byte {
	return appendFrame(dst, 0, g, keep)
}

func appendFrame(dst []byte, epoch uint64, g *store.Group, keep func(object uint64) bool) []byte {
	n := 0
	for i := range g.Len() {
		if keep == nil || keep(g.Object(i)) {
			n++
		}
	}
	dst = wire.AppendUvarint(dst, epoch)
	dst = wire.AppendUvarint(dst, uint64(n))
	for i := range g.Len() {
		if keep == nil || keep(g.Object(i)) {
			dst = wire.AppendUvarint(dst, g.Object(i))
			dst = wire.AppendBytes(dst, g.Record(i))
		}
	}
	return dst
}

// framePool recycles the backup handler's decoded frames.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// maxPooledMembers is the largest frame whose slices a recycled frame
// keeps: one huge group must not pin its footprint in the pool.
const maxPooledMembers = 64

// release recycles f, dropping every reference into the handler's frame.
func (f *Frame) release() {
	if cap(f.sets) > maxPooledMembers {
		*f = Frame{}
	}
	clear(f.sets)
	framePool.Put(f)
}

// Shipper is the primary-side replication endpoint: ShipGroup sends each
// write group to every backup. Safe for concurrent use.
type Shipper struct {
	pool *rpc.Pool

	// epoch is the configuration epoch stamped on every shipped frame;
	// backups reject frames from older epochs (deposed primaries).
	epoch atomic.Uint64

	mu      sync.RWMutex
	backups []string

	// leaseTTL > 0 arms read-lease granting: the renewal loop grants
	// every new fan-out at once (renewWake, sent by SetBackups) and every
	// backup again at TTL/4.
	leaseTTL  atomic.Int64
	renewOnce sync.Once
	closeOnce sync.Once
	renewStop chan struct{}
	renewWake chan struct{}

	// shippedCtr counts acknowledged write-sets, failures counts backup
	// rejections, shipUs tracks fan-out latency, batchSize the member count
	// of each shipped frame.
	shippedCtr *telemetry.Counter
	failures   *telemetry.Counter
	shipUs     *telemetry.Histogram
	batchSize  *telemetry.Histogram
}

// NewShipper returns a shipper over the given connection pool, counting
// into the pool's registry (rpc.Pool.SetTelemetry; none is fine). The unused
// second parameter stays because the frozen benchmark passes it.
func NewShipper(pool *rpc.Pool, _ func(addr string, err error)) *Shipper {
	reg := pool.Registry()
	return &Shipper{
		pool: pool, renewStop: make(chan struct{}), renewWake: make(chan struct{}, 1),
		shippedCtr: reg.Counter("repl.shipped"),
		failures:   reg.Counter("repl.backup_failures"),
		shipUs:     reg.Histogram("repl.ship"),
		batchSize:  reg.CountHistogram("repl.batch_size"),
	}
}

// SetLeaseTTL arms read-lease granting at ttl, which must be positive: a
// background loop grants each fan-out SetBackups sets at once, then renews
// every backup at TTL/4.
func (s *Shipper) SetLeaseTTL(ttl time.Duration) {
	s.leaseTTL.Store(int64(ttl))
	s.renewOnce.Do(func() { go s.renewLoop() })
}

// renewLoop grants every backup of a fan-out SetBackups sets at once, and
// keeps every current backup's lease fresh at TTL/4, whether writes flow or
// not: it is the only grant path. At most one renewal per backup is in
// flight: a tick finding the last one still out (a lost renewal, a frozen
// backup, a refused grant being retried) skips that backup rather than pile
// up calls that each wait out the pool's timeout.
func (s *Shipper) renewLoop() {
	var renewing sync.Map // backup address -> a renewal is in flight
	tick := time.NewTimer(time.Duration(s.leaseTTL.Load()) / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.renewStop:
			return
		case <-tick.C:
		case <-s.renewWake:
			if !tick.Stop() {
				select { // fired, not received: drain before the Reset
				case <-tick.C:
				default:
				}
			}
		}
		tick.Reset(time.Duration(s.leaseTTL.Load()) / 4)
		if s.epoch.Load() == 0 {
			continue
		}
		s.mu.RLock()
		backups := s.backups // replaced, never changed, by SetBackups
		s.mu.RUnlock()
		for _, addr := range backups {
			if _, busy := renewing.LoadOrStore(addr, true); busy {
				continue
			}
			go func(addr string) {
				defer renewing.Delete(addr)
				s.renew(addr)
			}(addr)
		}
	}
}

// renew grants addr a lease at the current epoch. A coordinated deployment
// installs a view one node at a time, so a grant sent at install can reach
// a backup that has not installed its epoch yet: while addr answers that it
// is behind, renew grants it again after 1, 2, 4 … ms, up to TTL/4. A lost
// grant (the lease simply expires, and the backup bounces reads until
// grants get through again), a grant that took, a refusal from a backup at
// or past the epoch, or addr leaving the fan-out ends it. A configuration
// installed while the grant was out is granted at once, whatever the reply:
// the install's own wake skipped addr, whose renewal was in flight.
func (s *Shipper) renew(addr string) {
	var retry *time.Timer
	for backoff := time.Millisecond; ; {
		ttl, epoch := time.Duration(s.leaseTTL.Load()), s.epoch.Load()
		if epoch == 0 || !s.isBackup(addr) {
			return
		}
		// Stamped before the send: time in flight eats into the granted
		// window rather than shifting it.
		body := encodeLease(leaseMsg{
			epoch:   epoch,
			ttlUs:   uint64(ttl / time.Microsecond),
			grantNs: uint64(time.Now().UnixNano()),
		})
		reply, err := s.pool.Call(addr, MethodLease, body)
		if err != nil {
			return
		}
		if s.epoch.Load() != epoch {
			continue
		}
		if r, err := decodeLeaseReply(reply); err != nil || r.took || r.epoch >= epoch {
			return
		}
		backoff = min(backoff, ttl/4)
		if retry == nil {
			retry = time.NewTimer(backoff)
			defer retry.Stop()
		} else {
			retry.Reset(backoff)
		}
		select {
		case <-s.renewStop:
			return
		case <-retry.C:
		}
		backoff *= 2
	}
}

// isBackup reports whether addr is in the current fan-out.
func (s *Shipper) isBackup(addr string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Contains(s.backups, addr)
}

// SetEpoch records the configuration epoch stamped on subsequent frames.
// Zero (the initial value) ships unfenced frames that any backup accepts.
func (s *Shipper) SetEpoch(epoch uint64) { s.epoch.Store(epoch) }

// Close stops the lease-renewal loop. Idempotent.
func (s *Shipper) Close() {
	s.closeOnce.Do(func() { close(s.renewStop) })
}

// SetBackups replaces the backup set (reconfiguration) and, with leasing
// armed, has the renewal loop grant every backup in it at once: the last
// step of a node's install, after the epoch is stamped.
func (s *Shipper) SetBackups(addrs []string) {
	s.mu.Lock()
	s.backups = append([]string(nil), addrs...)
	s.mu.Unlock()
	select {
	case s.renewWake <- struct{}{}:
	default: // a wake is pending already; it reads the newest set
	}
}

// groupPool recycles Ship's groups of one.
var groupPool = sync.Pool{New: func() any { return new(store.Group) }}

// Ship synchronously replicates one write-set of object to every backup:
// ShipGroup of a group of one.
func (s *Shipper) Ship(object uint64, b *store.Batch) error {
	g := groupPool.Get().(*store.Group)
	g.Add(object, b)
	err := s.ShipGroup(telemetry.SpanContext{}, g)
	g.Reset()
	groupPool.Put(g)
	return err
}

// fanout is one ShipGroup's pooled state: per backup a frame buffer, an
// answer and a spawn func bound once (so handing it to gopool.Go allocates
// no closure).
type fanout struct {
	s       *Shipper
	ctx     telemetry.SpanContext
	g       *store.Group
	backups []string
	frames  [][]byte
	errs    []error
	spawns  []func()
	wg      sync.WaitGroup
}

var fanoutPool = sync.Pool{New: func() any { return new(fanout) }}

// maxPooledShipBytes is the largest frame buffer a fanout keeps.
const maxPooledShipBytes = 64 << 10

// sendTo ships the group to backup i in the frame buffer kept for it.
func (f *fanout) sendTo(i int) {
	s := f.s
	// The rpc client copies the body into its connection buffer before
	// CallCtx returns, so the frame is free to reuse afterwards.
	f.frames[i] = appendFrame(f.frames[i][:0], s.epoch.Load(), f.g, nil)
	_, f.errs[i] = s.pool.CallCtx(f.backups[i], f.ctx, MethodApplyBatch, f.frames[i])
	s.batchSize.Observe(uint64(f.g.Len()))
}

// ShipGroup sends g's members, as their WAL records, to every backup in
// parallel, one frame each under trace ctx, and waits for every answer: an
// ErrBackupFailed names the first backup that did not acknowledge.
func (s *Shipper) ShipGroup(ctx telemetry.SpanContext, g *store.Group) error {
	s.mu.RLock()
	backups := s.backups
	s.mu.RUnlock()
	if len(backups) == 0 || g.Len() == 0 {
		return nil
	}
	start := time.Now()
	f := fanoutPool.Get().(*fanout)
	f.s, f.ctx, f.g, f.backups = s, ctx, g, backups
	n := len(backups)
	f.frames = slices.Grow(f.frames[:0], n)[:n]
	f.errs = slices.Grow(f.errs[:0], n)[:n]
	for i := len(f.spawns); i < n; i++ {
		f.spawns = append(f.spawns, func() { f.sendTo(i); f.wg.Done() })
	}
	f.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		gopool.Go(f.spawns[i])
	}
	f.sendTo(0)
	f.wg.Wait()

	var firstErr error
	for i, err := range f.errs {
		if err == nil {
			continue
		}
		s.failures.Inc()
		if firstErr == nil {
			firstErr = fmt.Errorf("%w: %s: %v", ErrBackupFailed, backups[i], err)
		}
	}
	for i, frame := range f.frames {
		if cap(frame) > maxPooledShipBytes {
			f.frames[i] = nil
		}
	}
	clear(f.errs)
	f.s, f.g, f.backups = nil, nil, nil
	fanoutPool.Put(f)
	s.shipUs.Record(time.Since(start))
	if firstErr == nil {
		s.shippedCtr.Add(uint64(g.Len()))
	}
	return firstErr
}

// Applier is the backup-side sink for one shipped frame: its members'
// objects and write-sets, in frame order (core.Runtime.ApplyReplicatedBulk
// passes them to one DB.Write — one WAL append, one fsync). The slices and
// the batches alias the request frame and are recycled with it: an applier
// writes them to its store before returning and keeps nothing.
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
// reconfigured (DESIGN.md §8). With a read-lease holder, the MethodLease
// renewal handler is registered too; frames never touch the lease.
func RegisterBackupLeased(srv *rpc.Server, applier Applier, tracer *telemetry.Tracer, reg *telemetry.Registry, localEpoch func() uint64, holder *LeaseHolder) {
	applied, stale := reg.Counter("repl.applied"), reg.Counter("repl.stale_epoch")
	srv.HandleCtx(MethodApplyBatch, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		sp := tracer.StartSpan(info.Trace, "repl.applyBatch")
		f := framePool.Get().(*Frame)
		defer f.release()
		err := f.Decode(body)
		if err != nil {
			sp.FinishErr(err)
			return nil, err
		}
		// Fence before applying anything: a frame from a deposed primary
		// (epoch older than ours) must not land a single write-set.
		// Epoch 0 marks an unfenced sender and is always accepted.
		if f.Epoch != 0 && localEpoch != nil {
			if local := localEpoch(); f.Epoch < local {
				err := fmt.Errorf("%w: shipped epoch %d < local epoch %d", ErrStaleEpoch, f.Epoch, local)
				stale.Inc()
				sp.FinishErr(err)
				return nil, err
			}
		}
		// The frame's members are write-sets of distinct objects
		// (same-object write-sets are serialized by the primary's object
		// scheduler, so one group never carries two); the applier gets the
		// whole frame.
		if err = applier(f.Objects, f.Batches); err != nil {
			// The whole frame fails: the ack is withheld for every member,
			// so no primary releases a client reply for a write-set this
			// backup does not hold.
			sp.FinishErr(err)
			return nil, err
		}
		applied.Add(uint64(len(f.Batches)))
		sp.Finish()
		return nil, nil
	})
	if holder != nil {
		registerLease(srv, holder)
	}
}
