package recovery

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// This file implements object-scoped live migration — the transfer
// machinery behind the rebalancer (DESIGN.md §13). It reuses the rejoin
// subsystem's building blocks (snapshot chunk streaming, commit
// forwarding, range digests) but scopes them to a single microshard and
// inverts the direction: the move is source-driven push, because the
// source primary is the only node that can quiesce the object.
//
// Protocol (source primary → target group primary):
//
//  1. move.begin    target clears any partial range and starts
//                   buffering forwards for the object.
//  2. move.chunk*   the object's range streams off a storage snapshot;
//                   the target applies each chunk through its
//                   replicated-apply path (its backups get it too).
//                   Writes that land during the stream are relayed by
//                   the source's commit hook (move.forward) and
//                   buffered at the target.
//  3. quiesce       the source fences the object (routing rejects new
//                   requests with not-responsible) and takes its
//                   scheduler admission, draining in-flight
//                   invocations — reads included, since reads admit
//                   too.
//  4. move.seal     the target drains its forward buffer in arrival
//                   order and returns a digest of its copy; the source
//                   compares against its own. A mismatch (a forward
//                   gap) re-streams the now-frozen range and seals
//                   again — under the admission this converges in one
//                   round.
//  5. cutover       the source proposes the epoch-fenced directory
//                   change (coordinator log) and deletes its local
//                   copy, replicating the deletes to its own backups.
//                   The fence stays: it self-clears once the source's
//                   directory view maps the object elsewhere, so a
//                   stale-view backup can never serve a stale read.
//  6. move.finish   the target retires the session and (optionally)
//                   fast-forwards its directory view so it serves
//                   immediately instead of waiting for a heartbeat.
//
// Any failure aborts: the source unfences and releases the admission
// (the object keeps serving where it was), and the target janitor
// deletes the partial copy — unless the directory says the move in
// fact committed, in which case the target keeps it (the source died
// between cutover and finish).

// Move RPC method names (served by the target group's primary).
const (
	MethodMoveBegin   = "move.begin"
	MethodMoveChunk   = "move.chunk"
	MethodMoveForward = "move.forward"
	MethodMoveSeal    = "move.seal"
	MethodMoveFinish  = "move.finish"
	MethodMoveAbort   = "move.abort"
)

const (
	// defaultSealRounds bounds seal → re-stream retries. Under the
	// source's admission the range is frozen, so one re-stream heals any
	// forward gap; extra rounds only cover chunk RPC loss.
	defaultSealRounds = 3
	// defaultMoveSessionTimeout is how long the target keeps an inactive
	// inbound session before the janitor reclaims it (the source died
	// mid-transfer).
	defaultMoveSessionTimeout = 10 * time.Second
)

// ---------------------------------------------------------------------------
// Wire messages

// moveBeginReq opens (or, with reset, reinitializes) an inbound session.
type moveBeginReq struct {
	object uint64
	epoch  uint64
	source string
	reset  bool
}

func encodeMoveBegin(r *moveBeginReq) []byte {
	b := wire.AppendUvarint(nil, r.object)
	b = wire.AppendUvarint(b, r.epoch)
	b = wire.AppendString(b, r.source)
	flag := uint64(0)
	if r.reset {
		flag = 1
	}
	return wire.AppendUvarint(b, flag)
}

func decodeMoveBegin(body []byte) (*moveBeginReq, error) {
	r := &moveBeginReq{}
	var err error
	if r.object, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	if r.epoch, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	if r.source, body, err = wire.String(body); err != nil {
		return nil, err
	}
	var flag uint64
	if flag, _, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	r.reset = flag != 0
	return r, nil
}

// moveChunkReq carries one bounded slice of the object's key range.
type moveChunkReq struct {
	object uint64
	keys   [][]byte
	values [][]byte
}

func encodeMoveChunk(r *moveChunkReq) []byte {
	b := wire.AppendUvarint(nil, r.object)
	b = wire.AppendBytesSlice(b, r.keys)
	return wire.AppendBytesSlice(b, r.values)
}

func decodeMoveChunk(body []byte) (*moveChunkReq, error) {
	r := &moveChunkReq{}
	var err error
	if r.object, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	if r.keys, body, err = wire.BytesSlice(body); err != nil {
		return nil, err
	}
	if r.values, _, err = wire.BytesSlice(body); err != nil {
		return nil, err
	}
	if len(r.keys) != len(r.values) {
		return nil, fmt.Errorf("recovery: move chunk %d keys / %d values", len(r.keys), len(r.values))
	}
	return r, nil
}

// moveObjectReq identifies the session on seal/finish/abort.
type moveObjectReq struct {
	object uint64
}

func encodeMoveObject(object uint64) []byte {
	return wire.AppendUvarint(nil, object)
}

func decodeMoveObject(body []byte) (*moveObjectReq, error) {
	r := &moveObjectReq{}
	var err error
	if r.object, _, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	return r, nil
}

// moveSealResp returns the target's post-drain digest of the range.
type moveSealResp struct {
	digest uint64
}

func encodeMoveSeal(r *moveSealResp) []byte {
	return wire.AppendUint64(nil, r.digest)
}

func decodeMoveSeal(body []byte) (*moveSealResp, error) {
	r := &moveSealResp{}
	var err error
	if r.digest, _, err = wire.Uint64(body); err != nil {
		return nil, err
	}
	return r, nil
}

// moveFinishReq retires the session; dir, when non-empty, is the
// source's post-cutover directory snapshot (a view fast-forward).
type moveFinishReq struct {
	object uint64
	dir    []byte
}

func encodeMoveFinish(object uint64, dir []byte) []byte {
	b := wire.AppendUvarint(nil, object)
	return wire.AppendBytes(b, dir)
}

func decodeMoveFinish(body []byte) (*moveFinishReq, error) {
	r := &moveFinishReq{}
	var err error
	if r.object, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	if r.dir, _, err = wire.Bytes(body); err != nil {
		return nil, err
	}
	return r, nil
}

// objectDigest chains the object's committed keys in key order off a
// consistent snapshot — the same fold recovery's digest table uses per
// object, so both ends of a move compute identical values for
// identical state.
func objectDigest(db *store.DB, object uint64) (uint64, error) {
	start, end := objectRange(object)
	snap := db.GetSnapshot()
	defer snap.Release()
	it, err := snap.NewIterator()
	if err != nil {
		return 0, err
	}
	defer it.Close()
	h := uint64(fnvOffset)
	for it.Seek(start); it.Valid(); it.Next() {
		k := it.Key()
		if string(k) >= string(end) {
			break
		}
		h = hashEntry(h, k, it.Value())
	}
	return h, it.Error()
}

// ---------------------------------------------------------------------------
// Source side

// MoveSourceOptions wires a MoveSource into its node.
type MoveSourceOptions struct {
	// Self is this node's RPC address (session identity in target-side
	// logs and status).
	Self string
	// DB is the source primary's storage engine.
	DB *store.DB
	// Pool carries the move RPCs to the target primary.
	Pool *rpc.Pool
	// Epoch returns the node's current directory epoch.
	Epoch func() uint64
	// IsPrimary gates the surface: only the object's current primary
	// may move it.
	IsPrimary func() bool
	// LockObject takes the object's write admission, draining every
	// in-flight invocation (reads admit too), and returns the release.
	LockObject func(object uint64) (func(), error)
	// Fence makes routing reject the object with not-responsible plus
	// the given hint, ahead of the admission queue.
	Fence func(object uint64, hint string)
	// Unfence lifts the fence (abort path only — after a successful
	// cutover the fence self-clears when the directory view moves on).
	Unfence func(object uint64)
	// CutOver proposes the epoch-fenced directory change making
	// targetGroup the object's home, confirms it landed, and refreshes
	// this node's view. It is the move's commit point.
	CutOver func(object, targetGroup uint64) error
	// Apply commits a batch through the node's replicated-apply path
	// (local write + ship to this group's backups) — used to delete the
	// moved range at the source.
	Apply func(object uint64, b *store.Batch) error
	// DirSnapshot, if set, returns the node's current directory
	// snapshot; it rides move.finish to fast-forward the target's view.
	DirSnapshot func() []byte
	// ChunkEntries bounds one streamed chunk (default 512).
	ChunkEntries int
	// SealRounds bounds seal retries (default 3).
	SealRounds int
	// Metrics, if set, receives move counters and the blackout
	// histogram.
	Metrics *telemetry.Registry
	// Tracer, if set, records each move as one trace.
	Tracer *telemetry.Tracer
	// Log, if set, receives progress lines.
	Log func(format string, args ...any)
}

// outMove is one in-flight outbound move.
type outMove struct {
	object uint64
	target string
	gaps   atomic.Uint64
}

// MoveSource drives outbound object moves on a group primary and
// relays the object's commits to the target while a move is in flight.
type MoveSource struct {
	opts MoveSourceOptions

	// active mirrors len(moves) so ForwardCommit is one atomic load on
	// the commit path when no move is running (the common case).
	active atomic.Int32
	mu     sync.Mutex
	moves  map[uint64]*outMove

	started   *telemetry.Counter
	completed *telemetry.Counter
	aborted   *telemetry.Counter
	forwards  *telemetry.Counter
	gapsCtr   *telemetry.Counter
	chunksCtr *telemetry.Counter
	bytesCtr  *telemetry.Counter
	blackoutH *telemetry.Histogram
	moveH     *telemetry.Histogram
}

// NewMoveSource builds a MoveSource.
func NewMoveSource(opts MoveSourceOptions) *MoveSource {
	if opts.ChunkEntries <= 0 {
		opts.ChunkEntries = defaultChunkEntries
	}
	if opts.SealRounds <= 0 {
		opts.SealRounds = defaultSealRounds
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	s := &MoveSource{opts: opts, moves: make(map[uint64]*outMove)}
	if opts.Metrics != nil {
		s.started = opts.Metrics.Counter("move.started")
		s.completed = opts.Metrics.Counter("move.completed")
		s.aborted = opts.Metrics.Counter("move.aborted")
		s.forwards = opts.Metrics.Counter("move.forwards")
		s.gapsCtr = opts.Metrics.Counter("move.forward_gaps")
		s.chunksCtr = opts.Metrics.Counter("move.chunks")
		s.bytesCtr = opts.Metrics.Counter("move.bytes_streamed")
		s.blackoutH = opts.Metrics.Histogram("move.blackout_us")
		s.moveH = opts.Metrics.Histogram("move.seconds")
	}
	return s
}

// SetSelf installs the node's bound address (known only after listen).
func (s *MoveSource) SetSelf(addr string) { s.opts.Self = addr }

// ForwardCommit relays one committed write-set to the target of the
// object's in-flight move, if any. Failures are gaps, not commit
// errors: the seal's digest check under the admission heals them, so a
// flaky target never stalls the source group's writes.
func (s *MoveSource) ForwardCommit(ctx telemetry.SpanContext, object uint64, b *store.Batch) {
	if s == nil || s.active.Load() == 0 {
		return
	}
	s.mu.Lock()
	mv := s.moves[object]
	s.mu.Unlock()
	if mv == nil {
		return
	}
	frame := encodeForward(object, b.Encode())
	span := s.opts.Tracer.StartSpan(ctx, "move.forward")
	fctx := span.Context()
	if !fctx.Valid() {
		fctx = ctx
	}
	_, err := s.opts.Pool.CallCtx(mv.target, fctx, MethodMoveForward, frame)
	span.FinishErr(err)
	if err != nil {
		mv.gaps.Add(1)
		if s.gapsCtr != nil {
			s.gapsCtr.Inc()
		}
		return
	}
	if s.forwards != nil {
		s.forwards.Inc()
	}
}

// InFlight returns the number of outbound moves currently running.
func (s *MoveSource) InFlight() int {
	if s == nil {
		return 0
	}
	return int(s.active.Load())
}

func (s *MoveSource) register(object uint64, target string) (*outMove, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.moves[object] != nil {
		return nil, fmt.Errorf("recovery: object %d is already moving", object)
	}
	mv := &outMove{object: object, target: target}
	s.moves[object] = mv
	s.active.Store(int32(len(s.moves)))
	return mv, nil
}

func (s *MoveSource) unregister(object uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.moves, object)
	s.active.Store(int32(len(s.moves)))
}

// Move transfers one object to the target group's primary and commits
// the directory cutover. It blocks until the move completes or aborts;
// on abort the object keeps serving at the source.
func (s *MoveSource) Move(object uint64, targetAddr string, targetGroup uint64) (err error) {
	if !s.opts.IsPrimary() {
		return fmt.Errorf("recovery: move source is not the group primary")
	}
	start := time.Now()
	root := s.opts.Tracer.StartSpan(telemetry.SpanContext{}, "move")
	defer func() { root.FinishErr(err) }()
	ctx := root.Context()

	if _, err := s.opts.Pool.CallCtx(targetAddr, ctx, MethodMoveBegin,
		encodeMoveBegin(&moveBeginReq{object: object, epoch: s.opts.Epoch(), source: s.opts.Self})); err != nil {
		return fmt.Errorf("begin: %w", err)
	}
	// Registration starts the commit relay. Every commit is either
	// captured by the snapshot taken below (the store write precedes the
	// relay check) or forwarded — or both, which is harmless: buffered
	// forwards replay after the chunks, and a write-set re-applied over
	// its own effects is a no-op.
	mv, err := s.register(object, targetAddr)
	if err != nil {
		return err
	}
	if s.started != nil {
		s.started.Inc()
	}
	fenced := false
	var release func()
	defer func() {
		if err == nil {
			return
		}
		// Abort: the object keeps serving here. Unfence before releasing
		// the admission so queued invocations find the route open.
		if fenced {
			s.opts.Unfence(object)
		}
		if release != nil {
			release()
		}
		s.unregister(object)
		if s.aborted != nil {
			s.aborted.Inc()
		}
		_, _ = s.opts.Pool.CallCtx(targetAddr, ctx, MethodMoveAbort, encodeMoveObject(object))
	}()

	if err = s.streamRange(ctx, mv); err != nil {
		return fmt.Errorf("stream: %w", err)
	}

	// Quiesce: fence first so routing rejects ahead of the admission
	// queue, then drain in-flight invocations by taking the admission.
	s.opts.Fence(object, targetAddr)
	fenced = true
	blackout := time.Now()
	release, err = s.opts.LockObject(object)
	if err != nil {
		release = nil
		return fmt.Errorf("quiesce: %w", err)
	}

	// Seal: the range is frozen, so source and target digests must
	// agree once the target drains its buffer. Forward gaps re-stream
	// the frozen range (reset mode applies directly — no forwards can
	// arrive) and seal again.
	local, err := objectDigest(s.opts.DB, object)
	if err != nil {
		return fmt.Errorf("seal digest: %w", err)
	}
	sealed := false
	for round := 0; round < s.opts.SealRounds; round++ {
		body, cerr := s.opts.Pool.CallCtx(targetAddr, ctx, MethodMoveSeal, encodeMoveObject(object))
		if cerr != nil {
			err = fmt.Errorf("seal: %w", cerr)
			return err
		}
		resp, derr := decodeMoveSeal(body)
		if derr != nil {
			err = derr
			return err
		}
		if resp.digest == local {
			sealed = true
			break
		}
		s.opts.Log("move: object %d seal mismatch (round %d, %d forward gaps), re-streaming", object, round+1, mv.gaps.Load())
		if _, cerr := s.opts.Pool.CallCtx(targetAddr, ctx, MethodMoveBegin,
			encodeMoveBegin(&moveBeginReq{object: object, epoch: s.opts.Epoch(), source: s.opts.Self, reset: true})); cerr != nil {
			err = fmt.Errorf("re-begin: %w", cerr)
			return err
		}
		if err = s.streamRange(ctx, mv); err != nil {
			return fmt.Errorf("re-stream: %w", err)
		}
	}
	if !sealed {
		err = fmt.Errorf("recovery: move of object %d never sealed after %d rounds", object, s.opts.SealRounds)
		return err
	}

	// Cutover — the commit point. After this the directory says the
	// target owns the object; a failure before it leaves the source the
	// owner. Either way exactly one group serves the object.
	if err = s.opts.CutOver(object, targetGroup); err != nil {
		return fmt.Errorf("cutover: %w", err)
	}

	// Delete the moved range here and on this group's backups. The
	// fence stays up: it self-clears when this node's view maps the
	// object elsewhere, and until then it shields stale-view replicas.
	if derr := deleteObjectRange(s.opts.DB, s.opts.Apply, object); derr != nil {
		// The move committed; a failed local delete only leaves garbage
		// that the next move or restart sweeps. Log, don't abort.
		s.opts.Log("move: object %d local delete after cutover: %v", object, derr)
	}
	if s.blackoutH != nil {
		s.blackoutH.Record(time.Since(blackout))
	}
	release()
	release = nil
	s.unregister(object)

	var dirSnap []byte
	if s.opts.DirSnapshot != nil {
		dirSnap = s.opts.DirSnapshot()
	}
	// Best effort: if finish is lost the target janitor retires the
	// session by checking the directory, which now names it the owner.
	_, _ = s.opts.Pool.CallCtx(targetAddr, ctx, MethodMoveFinish, encodeMoveFinish(object, dirSnap))

	if s.completed != nil {
		s.completed.Inc()
	}
	if s.moveH != nil {
		s.moveH.Record(time.Since(start))
	}
	s.opts.Log("move: object %d moved to group %d (%s) in %v", object, targetGroup, targetAddr, time.Since(start))
	return nil
}

// streamRange pushes the object's range off a consistent snapshot in
// bounded chunks.
func (s *MoveSource) streamRange(ctx telemetry.SpanContext, mv *outMove) error {
	start, end := objectRange(mv.object)
	snap := s.opts.DB.GetSnapshot()
	defer snap.Release()
	it, err := snap.NewIterator()
	if err != nil {
		return err
	}
	defer it.Close()

	chunk := &moveChunkReq{object: mv.object}
	bytes := 0
	flush := func() error {
		if len(chunk.keys) == 0 {
			return nil
		}
		if _, err := s.opts.Pool.CallCtx(mv.target, ctx, MethodMoveChunk, encodeMoveChunk(chunk)); err != nil {
			return err
		}
		if s.chunksCtr != nil {
			s.chunksCtr.Inc()
		}
		if s.bytesCtr != nil {
			s.bytesCtr.Add(uint64(bytes))
		}
		chunk.keys, chunk.values = chunk.keys[:0], chunk.values[:0]
		bytes = 0
		return nil
	}
	for it.Seek(start); it.Valid(); it.Next() {
		k := it.Key()
		if string(k) >= string(end) {
			break
		}
		chunk.keys = append(chunk.keys, append([]byte(nil), k...))
		chunk.values = append(chunk.values, append([]byte(nil), it.Value()...))
		bytes += len(k) + len(it.Value())
		if len(chunk.keys) >= s.opts.ChunkEntries || bytes >= chunkByteCap {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := it.Error(); err != nil {
		return err
	}
	return flush()
}

// ---------------------------------------------------------------------------
// Target side

// MoveTargetOptions wires a MoveTarget into its node.
type MoveTargetOptions struct {
	// DB is the target primary's storage engine.
	DB *store.DB
	// Apply commits a batch through the node's replicated-apply path
	// (local write + ship to this group's backups).
	Apply func(object uint64, b *store.Batch) error
	// Owns reports whether this node's directory view maps the object
	// to this node's group — the janitor's keep/discard test, and the
	// guard against clobbering an object the group already serves.
	Owns func(object uint64) bool
	// InstallDirectory, if set, offers the node a directory snapshot
	// carried by move.finish (installed only if strictly newer).
	InstallDirectory func(snap []byte)
	// SessionTimeout bounds inbound-session inactivity before the
	// janitor reclaims it (default 10s).
	SessionTimeout time.Duration
	// JanitorInterval paces the sweep (default SessionTimeout/4).
	JanitorInterval time.Duration
	// Metrics, if set, receives target-side counters.
	Metrics *telemetry.Registry
	// Log, if set, receives progress lines.
	Log func(format string, args ...any)
}

// inMove is one inbound move session.
type inMove struct {
	object uint64
	source string

	mu        sync.Mutex
	buffering bool
	buffer    []*forwardMsg
	last      time.Time
}

func (m *inMove) touch() {
	m.mu.Lock()
	m.last = time.Now()
	m.mu.Unlock()
}

// MoveTarget serves the inbound side of object moves on a group
// primary.
type MoveTarget struct {
	opts MoveTargetOptions

	mu       sync.Mutex
	sessions map[uint64]*inMove

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	received  *telemetry.Counter
	reclaimed *telemetry.Counter
}

// NewMoveTarget builds a MoveTarget; RegisterMover exposes it and
// starts the janitor.
func NewMoveTarget(opts MoveTargetOptions) *MoveTarget {
	if opts.SessionTimeout <= 0 {
		opts.SessionTimeout = defaultMoveSessionTimeout
	}
	if opts.JanitorInterval <= 0 {
		opts.JanitorInterval = opts.SessionTimeout / 4
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	t := &MoveTarget{
		opts:     opts,
		sessions: make(map[uint64]*inMove),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if opts.Metrics != nil {
		t.received = opts.Metrics.Counter("move.received")
		t.reclaimed = opts.Metrics.Counter("move.sessions_reclaimed")
	}
	go t.janitor()
	return t
}

// Close stops the janitor.
func (t *MoveTarget) Close() {
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
}

// Sessions returns the inbound session count (status surface).
func (t *MoveTarget) Sessions() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

func (t *MoveTarget) session(object uint64) (*inMove, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[object]
	if !ok {
		return nil, fmt.Errorf("recovery: no inbound move session for object %d", object)
	}
	return s, nil
}

// begin opens a session: any partial state from an earlier abandoned
// attempt is deleted first, so the stream lands on a clean range. With
// reset (a quiesced re-stream) the session flips to direct apply — the
// source holds the object's admission, so no forwards can arrive.
func (t *MoveTarget) begin(req *moveBeginReq) error {
	if !req.reset && t.opts.Owns(req.object) {
		return fmt.Errorf("recovery: refusing inbound move of object %d: this group already owns it", req.object)
	}
	t.mu.Lock()
	s, ok := t.sessions[req.object]
	if !ok {
		s = &inMove{object: req.object, source: req.source}
		t.sessions[req.object] = s
	}
	t.mu.Unlock()
	s.mu.Lock()
	s.buffering = !req.reset
	s.buffer = nil
	s.last = time.Now()
	s.mu.Unlock()
	return deleteObjectRange(t.opts.DB, t.opts.Apply, req.object)
}

// chunk applies one streamed slice through the replicated-apply path.
func (t *MoveTarget) chunk(req *moveChunkReq) error {
	s, err := t.session(req.object)
	if err != nil {
		return err
	}
	s.touch()
	b := store.NewBatch()
	for i := range req.keys {
		b.Put(req.keys[i], req.values[i])
	}
	if b.Empty() {
		return nil
	}
	return t.opts.Apply(req.object, b)
}

// forward buffers (or, post-reset, applies) one relayed commit.
func (t *MoveTarget) forward(msg *forwardMsg) error {
	s, err := t.session(msg.object)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.last = time.Now()
	if s.buffering {
		// msg.batch aliases the RPC frame, which the server recycles
		// once this handler returns — buffered bytes must be owned.
		msg.batch = append([]byte(nil), msg.batch...)
		s.buffer = append(s.buffer, msg)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	b, err := store.DecodeBatch(msg.batch)
	if err != nil {
		return err
	}
	return t.opts.Apply(msg.object, b)
}

// seal drains the forward buffer in arrival order and returns the
// digest of this replica's copy.
func (t *MoveTarget) seal(object uint64) (*moveSealResp, error) {
	s, err := t.session(object)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	pending := s.buffer
	s.buffer = nil
	s.buffering = false
	s.last = time.Now()
	s.mu.Unlock()
	for _, msg := range pending {
		b, err := store.DecodeBatch(msg.batch)
		if err != nil {
			return nil, err
		}
		if err := t.opts.Apply(object, b); err != nil {
			return nil, err
		}
	}
	dig, err := objectDigest(t.opts.DB, object)
	if err != nil {
		return nil, err
	}
	return &moveSealResp{digest: dig}, nil
}

// finish retires the session after the cutover committed.
func (t *MoveTarget) finish(req *moveFinishReq) {
	t.mu.Lock()
	delete(t.sessions, req.object)
	t.mu.Unlock()
	if len(req.dir) > 0 && t.opts.InstallDirectory != nil {
		t.opts.InstallDirectory(req.dir)
	}
	if t.received != nil {
		t.received.Inc()
	}
	t.opts.Log("move: object %d received", req.object)
}

// abort discards the session and the partial copy — unless the
// directory says the move committed (the source died between cutover
// and finish), in which case the copy is this group's live state.
func (t *MoveTarget) abort(object uint64) error {
	t.mu.Lock()
	_, ok := t.sessions[object]
	delete(t.sessions, object)
	t.mu.Unlock()
	if !ok {
		return nil
	}
	if t.opts.Owns(object) {
		if t.received != nil {
			t.received.Inc()
		}
		t.opts.Log("move: object %d kept on abort (directory maps it here)", object)
		return nil
	}
	return deleteObjectRange(t.opts.DB, t.opts.Apply, object)
}

// janitor reclaims sessions whose source went quiet: keep the copy if
// the directory says this group owns the object now, delete it
// otherwise.
func (t *MoveTarget) janitor() {
	defer close(t.done)
	for {
		select {
		case <-t.stop:
			return
		case <-time.After(t.opts.JanitorInterval):
		}
		cutoff := time.Now().Add(-t.opts.SessionTimeout)
		var stale []uint64
		t.mu.Lock()
		for id, s := range t.sessions {
			s.mu.Lock()
			idle := s.last.Before(cutoff)
			s.mu.Unlock()
			if idle {
				stale = append(stale, id)
			}
		}
		t.mu.Unlock()
		sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
		for _, id := range stale {
			t.opts.Log("move: reclaiming abandoned inbound session for object %d", id)
			if t.reclaimed != nil {
				t.reclaimed.Inc()
			}
			if err := t.abort(id); err != nil {
				t.opts.Log("move: reclaim of object %d: %v", id, err)
			}
		}
	}
}

// RegisterMover exposes the inbound move surface on the node's RPC
// server.
func RegisterMover(srv *rpc.Server, t *MoveTarget) {
	srv.Handle(MethodMoveBegin, func(body []byte) ([]byte, error) {
		req, err := decodeMoveBegin(body)
		if err != nil {
			return nil, err
		}
		return nil, t.begin(req)
	})
	srv.Handle(MethodMoveChunk, func(body []byte) ([]byte, error) {
		req, err := decodeMoveChunk(body)
		if err != nil {
			return nil, err
		}
		return nil, t.chunk(req)
	})
	srv.Handle(MethodMoveForward, func(body []byte) ([]byte, error) {
		msg, err := decodeForward(body)
		if err != nil {
			return nil, err
		}
		return nil, t.forward(msg)
	})
	srv.Handle(MethodMoveSeal, func(body []byte) ([]byte, error) {
		req, err := decodeMoveObject(body)
		if err != nil {
			return nil, err
		}
		resp, err := t.seal(req.object)
		if err != nil {
			return nil, err
		}
		return encodeMoveSeal(resp), nil
	})
	srv.Handle(MethodMoveFinish, func(body []byte) ([]byte, error) {
		req, err := decodeMoveFinish(body)
		if err != nil {
			return nil, err
		}
		t.finish(req)
		return nil, nil
	})
	srv.Handle(MethodMoveAbort, func(body []byte) ([]byte, error) {
		req, err := decodeMoveObject(body)
		if err != nil {
			return nil, err
		}
		return nil, t.abort(req.object)
	})
}
