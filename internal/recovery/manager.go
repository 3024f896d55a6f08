package recovery

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// State is the joiner's rejoin state machine (DESIGN.md §11):
//
//	idle → syncing → caught-up → cutover → member
//
// with any failure resetting to syncing after a retry delay, and a
// later eviction (the member dies again) resetting to idle → syncing.
type State int32

const (
	StateIdle State = iota
	StateSyncing
	StateCaughtUp
	StateCutover
	StateMember
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateSyncing:
		return "syncing"
	case StateCaughtUp:
		return "caught-up"
	case StateCutover:
		return "cutover"
	case StateMember:
		return "member"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ManagerOptions wires a Manager into its node.
type ManagerOptions struct {
	// Self is this node's RPC address (the session identity donors
	// forward to). Set via SetSelf once the listener is bound.
	Self string
	// GroupID is the group this node rejoins.
	GroupID uint64
	// Pool carries the joiner's session RPCs to the donor.
	Pool *rpc.Pool
	// DB is scanned for local digests and extra-key cleanup.
	DB *store.DB
	// Apply commits one chunk or forwarded write-set through the
	// runtime's replicated-apply path (cache invalidation included).
	Apply func(object uint64, b *store.Batch) error
	// Directory returns the node's current configuration view (kept
	// fresh by the node's coordinator loop).
	Directory func() *shard.Directory
	// ReloadTypes re-reads persisted type records after a meta-range
	// sync so newly arrived types are dispatchable.
	ReloadTypes func() error
	// ChunkEntries bounds one fetch chunk (default 512 entries).
	ChunkEntries int
	// MaxBytesPerSec rate-limits chunk streaming (0 = unlimited).
	MaxBytesPerSec int
	// RetryDelay paces sync attempts after a failure (default 250ms).
	RetryDelay time.Duration
	// PollInterval paces the membership watch (default 100ms).
	PollInterval time.Duration
	// FullResync ablates the digest diff: every object the donor holds
	// is streamed regardless of divergence (the bench's baseline).
	FullResync bool
	// Metrics, if set, receives the joiner-side counters and the
	// rejoin-duration histogram.
	Metrics *telemetry.Registry
	// Tracer, if set, records the rejoin as one trace: a root "rejoin"
	// span per session with every donor RPC (digest, objects, fetch,
	// promote, admit) as a traced child, so a whole catch-up assembles
	// like any other cross-node request.
	Tracer *telemetry.Tracer
	// Log, if set, receives progress lines.
	Log func(format string, args ...any)
}

// Manager drives one node's rejoin: it watches the configuration, and
// whenever this node is not a member of its group (and a primary
// exists to donate), runs the digest → stream → promote → verify →
// admit session against that primary. It also serves the joiner side
// of commit forwarding.
type Manager struct {
	opts  ManagerOptions
	state atomic.Int32

	// modeMu guards the forward path's mode and buffer: while
	// buffering, forwarded write-sets queue in memory — an append, so
	// the donor's forward RPC returns immediately even while the
	// initial transfer streams (writes never stall behind it). applyMu
	// guards the store: live forwards apply under it, and per-object
	// resyncs hold it across fetch+apply so a rebuilt range is atomic
	// with respect to forwards (in live mode the donor's forward RPC
	// briefly waits out the one object being rebuilt). goLive takes
	// modeMu then applyMu — the only place both are held.
	modeMu    sync.Mutex
	applyMu   sync.Mutex
	buffering bool
	buffer    []*forwardMsg

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	donorAddr  atomic.Pointer[string]
	lastErr    atomic.Pointer[string]
	attempts   atomic.Uint64
	rejoins    atomic.Uint64
	lastRejoin atomic.Uint64 // microseconds

	diverged *telemetry.Counter
	streamed *telemetry.Counter
	chunks   *telemetry.Counter
	rejoinH  *telemetry.Histogram

	// sessCtx is the current rejoin session's trace context (zero when
	// untraced). Only the manager loop goroutine touches it.
	sessCtx telemetry.SpanContext
}

// NewManager builds a Manager. RegisterForward must be called before
// the node serves; Run starts the watch loop.
func NewManager(opts ManagerOptions) *Manager {
	if opts.ChunkEntries <= 0 {
		opts.ChunkEntries = defaultChunkEntries
	}
	if opts.RetryDelay <= 0 {
		opts.RetryDelay = 250 * time.Millisecond
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 100 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	m := &Manager{
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if opts.Metrics != nil {
		m.diverged = opts.Metrics.Counter("recovery.ranges_diverged")
		m.streamed = opts.Metrics.Counter("recovery.bytes_streamed")
		m.chunks = opts.Metrics.Counter("recovery.chunks_applied")
		m.rejoinH = opts.Metrics.Histogram("recovery.rejoin_seconds")
	}
	return m
}

// SetSelf installs the node's bound address (known only after listen).
func (m *Manager) SetSelf(addr string) { m.opts.Self = addr }

// RegisterForward exposes the joiner side of commit forwarding. The
// handler's span joins the forwarding commit's trace (not the rejoin
// trace): the forward is part of that write's replication fan-out.
func (m *Manager) RegisterForward(srv *rpc.Server) {
	srv.HandleCtx(MethodForward, func(info rpc.CallInfo, body []byte) (_ []byte, err error) {
		span := m.opts.Tracer.StartSpan(info.Trace, "recovery.forward-apply")
		defer func() { span.FinishErr(err) }()
		msg, err := decodeForward(body)
		if err != nil {
			return nil, err
		}
		m.modeMu.Lock()
		if m.buffering {
			// The decoded batch aliases the RPC frame, whose backing
			// buffer the server recycles once this handler returns; a
			// buffered message outlives that, so it needs its own copy.
			// (The live branch below applies before returning, so the
			// alias is safe there.)
			msg.batch = append([]byte(nil), msg.batch...)
			m.buffer = append(m.buffer, msg)
			m.modeMu.Unlock()
			return nil, nil
		}
		m.modeMu.Unlock()
		// Live: apply under the store lock. The donor sends one forward
		// at a time per object (the commit hook runs under the object's
		// scheduler lock), so per-object order is preserved.
		m.applyMu.Lock()
		defer m.applyMu.Unlock()
		return nil, m.applyForward(msg)
	})
}

// applyForward commits one forwarded write-set (applyMu held).
func (m *Manager) applyForward(msg *forwardMsg) error {
	b, err := store.DecodeBatch(msg.batch)
	if err != nil {
		return err
	}
	return m.opts.Apply(msg.object, b)
}

// Run watches the configuration and drives rejoin sessions until Close.
func (m *Manager) Run() {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		if m.stepOnce() {
			// Member (or nothing to do): watch at the poll cadence.
			if !m.sleep(m.opts.PollInterval) {
				return
			}
			continue
		}
		if !m.sleep(m.opts.RetryDelay) {
			return
		}
	}
}

// sleep waits d or until Close; false means closing.
func (m *Manager) sleep(d time.Duration) bool {
	select {
	case <-m.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// Close stops the watch loop.
func (m *Manager) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// stepOnce inspects the configuration and, if this node is out of its
// group, runs one sync attempt. It returns true when there is nothing
// to retry (member, primary, or no usable configuration yet).
func (m *Manager) stepOnce() bool {
	d := m.opts.Directory()
	g, ok := groupByID(d, m.opts.GroupID)
	if !ok || g.Primary == "" {
		m.state.Store(int32(StateIdle))
		return true
	}
	if g.Primary == m.opts.Self || memberOf(&g, m.opts.Self) {
		if State(m.state.Swap(int32(StateMember))) != StateMember {
			m.opts.Log("recovery: %s is a member of group %d (epoch %d)", m.opts.Self, g.ID, d.Epoch())
		}
		return true
	}
	m.attempts.Add(1)
	if err := m.syncOnce(g.Primary, d.Epoch()); err != nil {
		msg := err.Error()
		m.lastErr.Store(&msg)
		m.state.Store(int32(StateSyncing))
		m.opts.Log("recovery: sync attempt against %s failed: %v", g.Primary, err)
		return false
	}
	return true
}

// syncOnce runs one full session: begin → buffered transfer → drain →
// strict promote → clean verification round → admit → membership. When
// tracing is on the whole session is one trace rooted at a "rejoin" span.
func (m *Manager) syncOnce(donor string, epoch uint64) (err error) {
	start := time.Now()
	m.setDonor(donor)
	m.state.Store(int32(StateSyncing))
	root := m.opts.Tracer.StartSpan(telemetry.SpanContext{}, "rejoin")
	m.sessCtx = root.Context()
	defer func() {
		root.FinishErr(err)
		m.sessCtx = telemetry.SpanContext{}
	}()
	if _, err := m.call(donor, MethodBegin, encodeSessionReq(m.opts.Self, epoch)); err != nil {
		return fmt.Errorf("begin: %w", err)
	}
	m.startBuffering()
	finished := false
	defer func() {
		if !finished {
			m.discardBuffer()
			// Best effort: a dead donor keeps no session anyway.
			m.call(donor, MethodEnd, encodeSessionReq(m.opts.Self, epoch)) //nolint:errcheck
		}
	}()

	// Initial transfer while forwards buffer.
	if _, err := m.round(donor, epoch, m.opts.FullResync); err != nil {
		return fmt.Errorf("transfer: %w", err)
	}
	// Replay the buffered commit stream and go live.
	if err := m.goLive(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	// Strict forwarding: from here every donor commit either reaches us
	// or is never acknowledged.
	if _, err := m.call(donor, MethodPromote, encodeSessionReq(m.opts.Self, epoch)); err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	// Verification rounds: one clean round under strict forwarding
	// proves this store equals the donor's digest snapshot, and
	// strictness covers everything after it. Dirty rounds repair and
	// retry (async-phase gaps, or writes racing the digest scans).
	clean := false
	for i := 0; i < 8; i++ {
		n, err := m.round(donor, epoch, false)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if n == 0 {
			clean = true
			break
		}
		m.opts.Log("recovery: verify round %d repaired %d ranges", i+1, n)
	}
	if !clean {
		return fmt.Errorf("verification never converged (sustained write races)")
	}
	m.state.Store(int32(StateCaughtUp))

	// Epoch-fenced cutover: the donor proposes the config change and
	// refreshes its shipping fan-out under its commit fence.
	m.state.Store(int32(StateCutover))
	_, admitErr := m.call(donor, MethodAdmit, encodeSessionReq(m.opts.Self, epoch))
	// Await membership in our own view even when admit errored: the
	// proposal may have landed before the donor's reply was lost.
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := m.opts.Directory()
		if g, ok := groupByID(d, m.opts.GroupID); ok && (memberOf(&g, m.opts.Self) || g.Primary == m.opts.Self) {
			break
		}
		if time.Now().After(deadline) {
			if admitErr != nil {
				return fmt.Errorf("admit: %w", admitErr)
			}
			return fmt.Errorf("admitted but membership never reached this node's view")
		}
		if !m.sleep(25 * time.Millisecond) {
			return fmt.Errorf("closing")
		}
	}
	finished = true
	m.state.Store(int32(StateMember))
	m.rejoins.Add(1)
	dur := time.Since(start)
	m.lastRejoin.Store(uint64(dur.Microseconds()))
	if m.rejoinH != nil {
		m.rejoinH.Record(dur)
	}
	m.opts.Log("recovery: %s rejoined group %d via %s in %v", m.opts.Self, m.opts.GroupID, donor, dur)
	return nil
}

// round runs one digest-diff-repair cycle against the donor and
// returns how many ranges (objects + meta) it had to repair. With full
// set (the FullResync ablation's initial transfer) the diff is skipped
// and every range the donor holds streams; verification rounds always
// run the real diff so the session can converge.
func (m *Manager) round(donor string, epoch uint64, full bool) (int, error) {
	local, err := BuildDigest(m.opts.DB, DefaultBuckets)
	if err != nil {
		return 0, err
	}
	body, err := m.callFetchSite(donor, MethodDigest, encodeDigestReq(m.opts.Self, epoch, uint64(DefaultBuckets)))
	if err != nil {
		return 0, err
	}
	remote, err := decodeDigestResp(body)
	if err != nil {
		return 0, err
	}

	var bucketList []uint64
	if full {
		// Ablation: skip the diff, drill into everything.
		for i := 0; i < DefaultBuckets; i++ {
			bucketList = append(bucketList, uint64(i))
		}
	} else {
		bucketList = DiffBuckets(local.Buckets, remote.buckets)
	}
	metaDiverged := local.Meta != remote.meta || full
	if len(bucketList) == 0 && !metaDiverged {
		return 0, nil
	}

	repaired := 0
	if metaDiverged {
		if err := m.syncRange(donor, epoch, nil, metaRangeEnd(), 0); err != nil {
			return repaired, err
		}
		if m.opts.ReloadTypes != nil {
			if err := m.opts.ReloadTypes(); err != nil {
				return repaired, err
			}
		}
		repaired++
	}
	if len(bucketList) == 0 {
		return repaired, nil
	}

	body, err = m.callFetchSite(donor, MethodObjects, encodeObjectsReq(m.opts.Self, epoch, bucketList))
	if err != nil {
		return repaired, err
	}
	objs, err := decodeObjectsResp(body)
	if err != nil {
		return repaired, err
	}
	bucketSet := make(map[uint64]bool, len(bucketList))
	for _, b := range bucketList {
		bucketSet[b] = true
	}
	syncIDs, dropIDs := ObjectDiff(local, objs.ids, objs.digests, bucketSet, DefaultBuckets)
	if full {
		// Stream everything the donor holds, not just the mismatches
		// (ObjectDiff still supplies the local-only ids to drop).
		syncIDs = append([]uint64(nil), objs.ids...)
	}
	if m.diverged != nil {
		m.diverged.Add(uint64(len(syncIDs) + len(dropIDs)))
	}
	sort.Slice(syncIDs, func(i, j int) bool { return syncIDs[i] < syncIDs[j] })
	for _, id := range syncIDs {
		start, end := objectRange(id)
		if err := m.syncRange(donor, epoch, start, end, id); err != nil {
			return repaired, err
		}
		repaired++
	}
	for _, id := range dropIDs {
		// A range the donor no longer has: applyMu is held across
		// scan+delete for the same atomicity as syncRange.
		m.applyMu.Lock()
		err := deleteObjectRange(m.opts.DB, m.opts.Apply, id)
		m.applyMu.Unlock()
		if err != nil {
			return repaired, err
		}
		repaired++
	}
	return repaired, nil
}

// syncRange replaces the local [start, end) contents with the donor's,
// streaming bounded chunks. applyMu is held across the whole range so
// the rebuild is atomic with respect to live forwarded commits: a
// forward for this object either lands before the rebuild (and is
// overwritten by newer donor state) or after it (and is newer than the
// fetch snapshot). The first chunk's batch deletes every existing
// local key in the range, so keys the donor no longer has cannot
// survive.
func (m *Manager) syncRange(donor string, epoch uint64, start, end []byte, object uint64) error {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()

	stale, err := localRangeKeys(m.opts.DB, start, end)
	if err != nil {
		return err
	}
	cursor := start
	first := true
	for {
		req := &fetchReq{start: cursor, end: end, limit: uint64(m.opts.ChunkEntries)}
		req.joiner, req.epoch = m.opts.Self, epoch
		body, err := m.callFetchSite(donor, MethodFetch, encodeFetchReq(req))
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
			first = false
		}
		bytes := 0
		for i := range resp.keys {
			b.Put(resp.keys[i], resp.values[i])
			bytes += len(resp.keys[i]) + len(resp.values[i])
		}
		if !b.Empty() {
			if err := m.opts.Apply(object, b); err != nil {
				return err
			}
		}
		if m.chunks != nil {
			m.chunks.Inc()
		}
		if m.streamed != nil {
			m.streamed.Add(uint64(bytes))
		}
		m.throttle(bytes)
		if len(resp.next) == 0 {
			return nil
		}
		cursor = resp.next
	}
}

// deleteObjectRange deletes every committed key of the object's range in
// one batch through apply (the node's replicated-apply path, so the group's
// backups drop them too).
func deleteObjectRange(db *store.DB, apply func(object uint64, b *store.Batch) error, object uint64) error {
	start, end := objectRange(object)
	keys, err := localRangeKeys(db, start, end)
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		return nil
	}
	b := store.NewBatch()
	for _, k := range keys {
		b.Delete(k)
	}
	return apply(object, b)
}

// localRangeKeys lists the committed keys in [start, end); an empty bound is
// open.
func localRangeKeys(db *store.DB, start, end []byte) ([][]byte, error) {
	snap := db.GetSnapshot()
	defer snap.Release()
	it, err := snap.NewIterator()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out [][]byte
	if len(start) == 0 {
		it.SeekToFirst()
	} else {
		it.Seek(start)
	}
	for ; it.Valid(); it.Next() {
		k := it.Key()
		if len(end) > 0 && string(k) >= string(end) {
			break
		}
		out = append(out, append([]byte(nil), k...))
	}
	return out, it.Error()
}

// callFetchSite wraps a donor call with the recovery.fetch fault site
// (keyed by donor address), so chaos schedules can drop or fail chunk
// RPCs mid-transfer.
func (m *Manager) callFetchSite(donor, method string, body []byte) ([]byte, error) {
	if fault.Enabled() {
		dec := fault.Eval(fault.SiteRecoveryFetch, donor)
		if dec.Delay > 0 {
			time.Sleep(dec.Delay)
		}
		if dec.Drop {
			return nil, fmt.Errorf("recovery: %s to %s dropped (injected)", method, donor)
		}
		if dec.Err != nil {
			return nil, dec.Err
		}
	}
	return m.call(donor, method, body)
}

// call issues one session RPC to the donor under the current rejoin trace:
// a child span named after the method brackets the call, and the context
// rides the RPC frame so the donor's handler spans join the same trace.
func (m *Manager) call(donor, method string, body []byte) ([]byte, error) {
	span := m.opts.Tracer.StartSpan(m.sessCtx, method)
	ctx := span.Context()
	if !ctx.Valid() {
		ctx = m.sessCtx
	}
	resp, err := m.opts.Pool.CallCtx(donor, ctx, method, body)
	span.FinishErr(err)
	return resp, err
}

// throttle enforces MaxBytesPerSec per chunk.
func (m *Manager) throttle(bytes int) {
	if m.opts.MaxBytesPerSec <= 0 || bytes <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(bytes) / float64(m.opts.MaxBytesPerSec) * float64(time.Second)))
}

// startBuffering clears the forward buffer and enters buffering mode.
func (m *Manager) startBuffering() {
	m.modeMu.Lock()
	m.buffering = true
	m.buffer = nil
	m.modeMu.Unlock()
}

// discardBuffer leaves buffering mode dropping anything queued (the
// session is aborted; the next attempt restarts from digests).
func (m *Manager) discardBuffer() {
	m.modeMu.Lock()
	m.buffering = false
	m.buffer = nil
	m.modeMu.Unlock()
}

// goLive replays the buffered commit stream in arrival order and
// switches the forward handler to immediate apply, atomically: both
// locks are held, so no forward can slip between the drain and the
// mode flip.
func (m *Manager) goLive() error {
	m.modeMu.Lock()
	defer m.modeMu.Unlock()
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	for _, msg := range m.buffer {
		if err := m.applyForward(msg); err != nil {
			m.buffering = false
			m.buffer = nil
			return err
		}
	}
	m.buffer = nil
	m.buffering = false
	return nil
}

func (m *Manager) setDonor(addr string) { m.donorAddr.Store(&addr) }

// Status is the manager's state machine as shown by /recovery and
// lambdactl recovery.
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
func (m *Manager) Status() Status {
	if m == nil {
		return Status{State: "disabled"}
	}
	st := Status{
		Self:              m.opts.Self,
		State:             State(m.state.Load()).String(),
		Attempts:          m.attempts.Load(),
		Rejoins:           m.rejoins.Load(),
		LastRejoinSeconds: float64(m.lastRejoin.Load()) / 1e6,
	}
	if p := m.donorAddr.Load(); p != nil {
		st.Donor = *p
	}
	if p := m.lastErr.Load(); p != nil {
		st.LastError = *p
	}
	if m.diverged != nil {
		st.RangesDiverged = m.diverged.Value()
		st.BytesStreamed = m.streamed.Value()
		st.ChunksApplied = m.chunks.Value()
	}
	return st
}

// State returns the current state machine position.
func (m *Manager) State() State { return State(m.state.Load()) }

func groupByID(d *shard.Directory, id uint64) (shard.Group, bool) {
	for _, g := range d.Groups() {
		if g.ID == id {
			return g, true
		}
	}
	return shard.Group{}, false
}

func memberOf(g *shard.Group, addr string) bool {
	for _, b := range g.Backups {
		if b == addr {
			return true
		}
	}
	return false
}
