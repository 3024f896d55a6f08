package recovery

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/replication"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// testNode is one Plane over a bare store and RPC server — no runtime, no
// cluster.Node. The store's group hook ships and relays as the node's does
// (a primary ships to its group's admitted backups, which log the frame),
// commit and apply mark their write-sets for it, and the orchestrator
// callbacks act on a directory both nodes share by pointer (static mode).
type testNode struct {
	t     *testing.T
	group uint64
	db    *store.DB
	srv   *rpc.Server
	pool  *rpc.Pool
	ship  *replication.Shipper
	reg   *telemetry.Registry
	dir   *shard.Directory
	plane *Plane
	addr  string

	mu      sync.Mutex
	objMu   map[uint64]*sync.Mutex
	fences  map[uint64]string
	applied []*store.Batch
	// onApply, if set, runs before each Apply reaches the store (under the
	// session's applyMu for chunks and live forwards): a test parks a chunk
	// here to commit at the sender inside the fetch → apply window.
	onApply func(object uint64, b *store.Batch)
	// onGroup, if set, runs in the group hook once GuardCommit returned: a
	// test parks a group there.
	onGroup func()
}

func startTestNode(t *testing.T, dir *shard.Directory, group uint64, moveTimeout time.Duration) *testNode {
	t.Helper()
	n := &testNode{
		t: t, group: group, srv: rpc.NewServer(), pool: rpc.NewPool(nil),
		reg: telemetry.NewRegistry(), dir: dir,
		objMu: make(map[uint64]*sync.Mutex), fences: make(map[uint64]string),
	}
	n.ship = replication.NewShipper(n.pool, nil)
	db, err := store.Open(t.TempDir(), &store.Options{OnGroup: func(g *store.Group) {
		defer n.plane.GuardCommit()()
		n.mu.Lock()
		hook := n.onGroup
		n.mu.Unlock()
		if hook != nil {
			hook()
		}
		var err error
		if grp, _ := dir.Group(group); grp.Primary == n.plane.selfAddr() {
			n.ship.SetBackups(grp.Backups)
			err = n.ship.ShipGroup(telemetry.SpanContext{}, g)
		}
		g.Release()
		if err != nil {
			for i := range g.Len() {
				g.Fail(i, err)
			}
			return
		}
		n.plane.Relay(g)
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	n.db = db
	replication.RegisterBackup(n.srv, db, replication.ApplierFunc(func(_ uint64, b *store.Batch) error { return db.Write(b) }))
	n.plane = New(Options{
		GroupID:      group,
		DB:           n.db,
		Pool:         n.pool,
		Directory:    func() *shard.Directory { return dir },
		SetDirectory: func(*shard.Directory) { t.Error("shared directory: nothing newer to install") },
		Apply:        n.apply,
		ReloadTypes:  func() error { return nil },
		Admit: func(joiner string, epoch uint64) error {
			if epoch != dir.Epoch() || !dir.AddBackup(group, joiner) {
				return fmt.Errorf("admission of %s fenced out", joiner)
			}
			return nil
		},
		LockObject: func(object uint64) (func(), error) {
			m := n.objectLock(object)
			m.Lock()
			return m.Unlock, nil
		},
		Fence:   func(object uint64, hint string) { n.mu.Lock(); n.fences[object] = hint; n.mu.Unlock() },
		Unfence: func(object uint64) { n.mu.Lock(); delete(n.fences, object); n.mu.Unlock() },
		CutOver: func(object, target uint64) error {
			dir.SetOverride(object, target)
			return nil
		},
		MoveSessionTimeout: moveTimeout,
		Metrics:            n.reg,
	})
	n.plane.Register(n.srv)
	addr, err := n.srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = addr
	n.plane.SetSelf(addr)
	t.Cleanup(func() {
		n.plane.Close()
		n.ship.Close()
		n.srv.Close()
		n.pool.Close()
	})
	return n
}

func (n *testNode) objectLock(object uint64) *sync.Mutex {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.objMu[object] == nil {
		n.objMu[object] = &sync.Mutex{}
	}
	return n.objMu[object]
}

func (n *testNode) apply(object uint64, b *store.Batch) error {
	n.mu.Lock()
	hook := n.onApply
	n.applied = append(n.applied, b)
	n.mu.Unlock()
	if hook != nil {
		hook(object, b)
	}
	b.Replicate(object, telemetry.SpanContext{})
	return n.db.Write(b)
}

func (n *testNode) setOnApply(fn func(object uint64, b *store.Batch)) {
	n.mu.Lock()
	n.onApply = fn
	n.mu.Unlock()
}

// commit is a primary's commit of one key: the store write — whose group
// relays it — under the object's scheduler lock.
func (n *testNode) commit(object uint64, suffix, value string) error {
	m := n.objectLock(object)
	m.Lock()
	defer m.Unlock()
	b := store.NewBatch()
	b.Put(objKey(object, suffix), []byte(value))
	b.Replicate(object, telemetry.SpanContext{})
	return n.db.Write(b)
}

func (n *testNode) mustCommit(object uint64, suffix, value string) {
	n.t.Helper()
	if err := n.commit(object, suffix, value); err != nil {
		n.t.Fatalf("commit %d/%s: %v", object, suffix, err)
	}
}

func (n *testNode) get(object uint64, suffix string) string {
	n.t.Helper()
	v, err := n.db.Get(objKey(object, suffix))
	if err != nil {
		return ""
	}
	return string(v)
}

func (n *testNode) counter(name string) uint64 { return n.reg.Counter(name).Value() }

// dump lists every committed entry of the store.
func dump(t *testing.T, db *store.DB) string {
	t.Helper()
	var sb bytes.Buffer
	if err := scanRange(db, nil, nil, func(k, v []byte) bool {
		fmt.Fprintf(&sb, "%x=%s\n", k, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pair starts a primary of group 0 and a second node: group 0's evicted
// replica (the joiner of a rejoin) when sameGroup, else group 1's primary
// (the target of a move).
func pair(t *testing.T, sameGroup bool, moveTimeout time.Duration) (dir *shard.Directory, a, b *testNode) {
	t.Helper()
	fault.Reset()
	t.Cleanup(fault.Reset)
	dir = shard.NewDirectory(nil)
	a = startTestNode(t, dir, 0, moveTimeout)
	dir.SetGroup(shard.Group{ID: 0, Primary: a.addr})
	if sameGroup {
		return dir, a, startTestNode(t, dir, 0, moveTimeout)
	}
	b = startTestNode(t, dir, 1, moveTimeout)
	dir.SetGroup(shard.Group{ID: 1, Primary: b.addr})
	return dir, a, b
}

// parkFirstApply parks n's next Apply for object (a chunk: the session is
// not live yet, or the test sends no forwards) until release is called, and
// returns a channel that closes once it is parked.
func parkFirstApply(n *testNode, object uint64) (parked <-chan struct{}, release func()) {
	p, r := make(chan struct{}), make(chan struct{})
	var taken atomic.Bool // not a sync.Once: later applies must pass, not queue behind the parked one
	n.setOnApply(func(obj uint64, _ *store.Batch) {
		if obj == object && taken.CompareAndSwap(false, true) {
			close(p)
			<-r
		}
	})
	return p, func() { close(r) }
}

// (a) syncRange removes keys the sender no longer has, and a live forward
// that lands while a range is being rebuilt applies after the rebuild — not
// in the middle, where the chunk fetched before it would overwrite it.
func TestSyncRangeReplacesRangeAtomically(t *testing.T) {
	dir, snd, rcv := pair(t, true, 0)
	snd.mustCommit(7, "a", "a1")
	snd.mustCommit(7, "b", "b1")
	for _, k := range []string{"a", "gone"} {
		if err := rcv.db.Put(objKey(7, k), []byte("stale")); err != nil {
			t.Fatal(err)
		}
	}
	s, err := rcv.plane.openInbound(snd.addr, scope{}, dir.Epoch(), telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.goLive(); err != nil {
		t.Fatal(err)
	}

	// Park the chunk between its fetch and its apply, and commit at the
	// sender inside that window: the chunk carries b1, the forward b2.
	parked, release := parkFirstApply(rcv, 7)
	synced := make(chan error, 1)
	go func() {
		start, end := objectRange(7)
		synced <- s.syncRange(start, end, 7)
	}()
	<-parked
	committed := make(chan error, 1)
	go func() { committed <- snd.commit(7, "b", "b2") }()
	select {
	case err := <-committed:
		t.Fatalf("live forward applied inside a range rebuild (commit returned %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if got := rcv.get(7, "b"); got != "b2" {
		t.Fatalf("b = %q after rebuild + forward, want b2 (the forward must follow the chunk)", got)
	}
	if got := rcv.get(7, "gone"); got != "" {
		t.Fatalf("key the sender no longer has survived the rebuild: %q", got)
	}
	if got, want := dump(t, rcv.db), dump(t, snd.db); got != want {
		t.Fatalf("receiver:\n%swant:\n%s", got, want)
	}
}

// (b) Commits racing the initial transfer are buffered — not applied before
// the chunk they follow — and replayed in arrival order once it is in.
func TestForwardsBufferThenDrainInOrder(t *testing.T) {
	dir, snd, rcv := pair(t, true, 0)
	snd.mustCommit(7, "k", "v0")
	s, err := rcv.plane.openInbound(snd.addr, scope{}, dir.Epoch(), telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		snd.mustCommit(7, "k", fmt.Sprintf("v%d", i))
	}
	snd.mustCommit(7, "late", "only-forwarded")
	if got := rcv.get(7, "k"); got != "" {
		t.Fatalf("forward applied before the transfer it follows: k = %q", got)
	}
	start, end := objectRange(7)
	if err := s.syncRange(start, end, 7); err != nil {
		t.Fatal(err)
	}
	rcv.mu.Lock()
	rcv.applied = nil
	rcv.mu.Unlock()
	if err := s.goLive(); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, b := range rcv.applied {
		b.ForEach(func(_ byte, k, v []byte) error { //nolint:errcheck
			order = append(order, string(v))
			return nil
		})
	}
	if got, want := fmt.Sprint(order), "[v1 v2 v3 only-forwarded]"; got != want {
		t.Fatalf("drain order %s, want %s", got, want)
	}
	if got, want := dump(t, rcv.db), dump(t, snd.db); got != want {
		t.Fatalf("receiver:\n%swant:\n%s", got, want)
	}
	// Live now: the next commit applies on arrival.
	snd.mustCommit(7, "k", "v4")
	if got := rcv.get(7, "k"); got != "v4" {
		t.Fatalf("live forward not applied: k = %q", got)
	}
}

// (c), replica scope: a forward that fails during the initial transfer leaves
// the joiner behind; the post-promote verify round finds and repairs it, and
// only then is the joiner admitted.
func TestRejoinHealsDroppedForward(t *testing.T) {
	dir, snd, rcv := pair(t, true, 0)
	for id := uint64(1); id <= 5; id++ {
		snd.mustCommit(id, "f", "v0")
	}
	parked, release := parkFirstApply(rcv, 3)
	done := make(chan error, 1)
	go func() { done <- rcv.plane.syncOnce(snd.addr, dir.Epoch()) }()
	<-parked
	// Object 3's chunk is fetched: this commit is in no snapshot, and its
	// forward fails.
	fault.Add(fault.Rule{Site: MethodForward, To: rcv.addr, Action: fault.Error, Count: 1})
	snd.mustCommit(3, "f", "v1")
	release()
	if err := <-done; err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if got := snd.counter("recovery.forward_gaps"); got != 1 {
		t.Fatalf("recovery.forward_gaps = %d, want 1", got)
	}
	if got := rcv.get(3, "f"); got != "v1" {
		t.Fatalf("verify round did not repair the gap: object 3 = %q", got)
	}
	if got, want := dump(t, rcv.db), dump(t, snd.db); got != want {
		t.Fatalf("joiner:\n%swant:\n%s", got, want)
	}
	g, _ := dir.Lookup(0)
	if !slices.Contains(g.Backups, rcv.addr) {
		t.Fatalf("joiner not admitted: group %+v", g)
	}
	if n := len(snd.plane.Sessions()); n != 0 {
		t.Fatalf("%d sender sessions after admission", n)
	}
	if rcv.plane.State() != StateMember || rcv.plane.Status().Rejoins != 1 {
		t.Fatalf("status %+v", rcv.plane.Status())
	}
}

// Commits keep landing between the joiner's digest scan and the sender's in
// every round, yet the first round after promote certifies the rejoin: no
// commit fails, the joiner is admitted, and it ends equal to the sender.
func TestRejoinCertifiesUnderSustainedWrites(t *testing.T) {
	dir, snd, rcv := pair(t, true, 0)
	const objects = 4
	for id := uint64(1); id <= objects; id++ {
		snd.mustCommit(id, "f", "v0")
	}
	// The sender scans at least 2 ms after the joiner, and the writers
	// commit in between.
	fault.Add(fault.Rule{Site: MethodDigest, Action: fault.Delay, Delay: 2 * time.Millisecond})
	stop := make(chan struct{})
	failed := make(chan error, 3)
	var writers sync.WaitGroup
	for w := range 3 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := snd.commit(uint64(i%objects+1), fmt.Sprint("w", w), fmt.Sprint(i)); err != nil {
					failed <- err
					return
				}
			}
		}()
	}
	err := rcv.plane.syncOnce(snd.addr, dir.Epoch())
	close(stop)
	writers.Wait()
	close(failed)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	for err := range failed {
		t.Fatalf("commit failed during the rejoin: %v", err)
	}
	if g, _ := dir.Group(0); !slices.Contains(g.Backups, rcv.addr) {
		t.Fatalf("joiner not admitted: group %+v", g)
	}
	if got, want := dump(t, rcv.db), dump(t, snd.db); got != want {
		t.Fatalf("joiner:\n%swant:\n%s", got, want)
	}
}

// certify runs a rejoin's steps by hand up to admission: rcv opens a
// replica session at snd, runs a round, goes live, is promoted and runs
// the certifying round.
func certify(t *testing.T, dir *shard.Directory, snd, rcv *testNode) *inbound {
	t.Helper()
	s, err := rcv.plane.openInbound(snd.addr, scope{}, dir.Epoch(), telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	round := func() error { return rcv.plane.round(s) }
	promote := func() error {
		_, err := s.call(MethodPromote, encodeSessionReq(&s.req))
		return err
	}
	for _, step := range []func() error{round, s.goLive, promote, round} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// A strict relay that fails after the certifying round withholds its
// commit's ack and leaves the sender holding a write the joiner lacks, a gap
// no later round looks for: admission refuses the session, and the joiner's
// next session heals it.
func TestAdmitRefusesStrictGap(t *testing.T) {
	dir, snd, rcv := pair(t, true, 0)
	snd.mustCommit(1, "k", "v0")
	s := certify(t, dir, snd, rcv)
	fault.Add(fault.Rule{Site: MethodForward, To: rcv.addr, Action: fault.Error, Count: 1})
	if err := snd.commit(1, "k", "v1"); err == nil {
		t.Fatal("a commit whose strict relay failed was acknowledged")
	}
	if _, err := s.call(MethodAdmit, encodeSessionReq(&s.req)); err == nil {
		t.Fatalf("admitted a joiner holding %q while the sender holds %q", rcv.get(1, "k"), snd.get(1, "k"))
	}
	if g, _ := dir.Group(0); slices.Contains(g.Backups, rcv.addr) {
		t.Fatalf("refused joiner is a backup: group %+v", g)
	}
	if err := rcv.plane.syncOnce(snd.addr, dir.Epoch()); err != nil {
		t.Fatalf("next session: %v", err)
	}
	if got := rcv.get(1, "k"); got != "v1" {
		t.Fatalf("joiner holds %q after its next session, want v1", got)
	}
}

// A write group whose hook began before any session opened took no commit
// guard, so admission does not wait for it; its write was in the store
// before the session began, so the joiner pulls it. It relays nothing: a
// relay of it that reached the joiner after admission would find the
// session closed and withhold the ack of a write both replicas hold.
func TestGroupBeforeBeginRelaysNothing(t *testing.T) {
	dir, snd, rcv := pair(t, true, 0)
	parked, release := make(chan struct{}), make(chan struct{})
	var taken atomic.Bool
	snd.mu.Lock()
	snd.onGroup = func() {
		if taken.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	}
	snd.mu.Unlock()
	committed := make(chan error, 1)
	go func() { committed <- snd.commit(1, "k", "v1") }()
	<-parked

	s := certify(t, dir, snd, rcv)
	// Hold a relay of the parked group on its way until the joiner has been
	// admitted and has closed its session.
	fault.Add(fault.Rule{Site: MethodForward, Action: fault.Delay, Delay: 200 * time.Millisecond, Count: 1})
	close(release)
	waitUntil(t, "the parked group's commit or relay", func() bool {
		return len(committed) > 0 || fault.Counters()[MethodForward+".delay"] > 0
	})
	if _, err := s.call(MethodAdmit, encodeSessionReq(&s.req)); err != nil {
		t.Fatalf("admit: %v", err)
	}
	rcv.plane.closeInbound(s)
	if err := <-committed; err != nil {
		t.Fatalf("the group from before the session failed: %v", err)
	}
	if got, want := dump(t, rcv.db), dump(t, snd.db); got != want {
		t.Fatalf("joiner:\n%swant:\n%s", got, want)
	}
}

// moves counts the source's outbound and the target's inbound move sessions.
func moves(src, tgt *testNode) (outbound, inbound int) {
	outbound, _ = src.plane.Moves()
	return outbound, inboundMoves(tgt)
}

func inboundMoves(n *testNode) int {
	_, inbound := n.plane.Moves()
	return inbound
}

// moveFixture puts a 3-key object 6 on the source (group 0's primary).
func moveFixture(t *testing.T, moveTimeout time.Duration) (dir *shard.Directory, src, tgt *testNode, payload uint64) {
	dir, src, tgt = pair(t, false, moveTimeout)
	for _, k := range []string{"a", "b", "c"} {
		v := "value-" + k
		src.mustCommit(6, k, v)
		payload += uint64(len(objKey(6, k)) + len(v))
	}
	return dir, src, tgt, payload
}

// A move with no lost forward streams the object's payload once and seals
// on the first comparison.
func TestMoveStreamsPayloadOnce(t *testing.T) {
	dir, src, tgt, payload := moveFixture(t, 0)
	want := dump(t, src.db)
	if err := src.plane.Move(6, tgt.addr, 1); err != nil {
		t.Fatalf("move: %v", err)
	}
	if got := tgt.counter("move.bytes_streamed"); got != payload {
		t.Fatalf("move.bytes_streamed = %d, want the payload %d", got, payload)
	}
	if c, r := tgt.counter("move.chunks"), tgt.counter("move.seal_repulls"); c != 1 || r != 0 {
		t.Fatalf("move.chunks = %d, move.seal_repulls = %d; want 1, 0", c, r)
	}
	if got := dump(t, tgt.db); got != want {
		t.Fatalf("target:\n%swant:\n%s", got, want)
	}
	if got := dump(t, src.db); got != "" {
		t.Fatalf("source kept the moved range:\n%s", got)
	}
	if g, _ := dir.Lookup(6); g.ID != 1 {
		t.Fatalf("object 6 on group %d after the move", g.ID)
	}
	if src.fences[6] != tgt.addr {
		t.Fatalf("fence after cutover = %q, want it up and pointing at the target", src.fences[6])
	}
	if o, i := moves(src, tgt); o != 0 || i != 0 {
		t.Fatalf("sessions left behind: %d outbound, %d inbound", o, i)
	}
	if got := tgt.counter("move.received"); got != 1 {
		t.Fatalf("move.received = %d", got)
	}
}

// (c), object scope: a forward that fails while the target pulls is healed by
// the seal — one re-pull of the frozen range — before the cutover.
func TestMoveSealHealsDroppedForward(t *testing.T) {
	_, src, tgt, _ := moveFixture(t, 0)
	parked, release := parkFirstApply(tgt, 6)
	done := make(chan error, 1)
	go func() { done <- src.plane.Move(6, tgt.addr, 1) }()
	<-parked
	fault.Add(fault.Rule{Site: MethodForward, To: tgt.addr, Action: fault.Error, Count: 1})
	src.mustCommit(6, "b", "rewritten")
	want := dump(t, src.db)
	release()
	if err := <-done; err != nil {
		t.Fatalf("move: %v", err)
	}
	if g, r := src.counter("move.forward_gaps"), tgt.counter("move.seal_repulls"); g != 1 || r != 1 {
		t.Fatalf("move.forward_gaps = %d, move.seal_repulls = %d; want 1, 1", g, r)
	}
	if got := dump(t, tgt.db); got != want {
		t.Fatalf("target:\n%swant:\n%s", got, want)
	}
}

// A move whose target cannot seal aborts: the object stays, unfenced and
// writable, at the source, and the target sheds its partial copy.
func TestMoveAbortLeavesObjectAtSource(t *testing.T) {
	dir, src, tgt, _ := moveFixture(t, 0)
	want := dump(t, src.db)
	// Every pull fails once the offer's own chunk is in, and so does the
	// relay: the seal finds a stale copy it cannot repair.
	parked, release := parkFirstApply(tgt, 6)
	done := make(chan error, 1)
	go func() { done <- src.plane.Move(6, tgt.addr, 1) }()
	<-parked
	fault.Add(fault.Rule{Site: MethodForward, To: tgt.addr, Action: fault.Error})
	fault.Add(fault.Rule{Site: MethodFetch, To: src.addr, Action: fault.Error})
	src.mustCommit(6, "d", "unseen")
	want += fmt.Sprintf("%x=unseen\n", objKey(6, "d"))
	release()
	if err := <-done; err == nil {
		t.Fatal("move sealed over a copy missing a commit")
	}
	fault.Reset()
	if g, _ := dir.Lookup(6); g.ID != 0 {
		t.Fatalf("aborted move left object 6 on group %d", g.ID)
	}
	if _, fenced := src.fences[6]; fenced {
		t.Fatal("aborted move left the object fenced")
	}
	src.mustCommit(6, "e", "after")
	want += fmt.Sprintf("%x=after\n", objKey(6, "e"))
	if got := dump(t, src.db); got != want {
		t.Fatalf("source:\n%swant:\n%s", got, want)
	}
	if got := dump(t, tgt.db); got != "" {
		t.Fatalf("target kept a copy it does not own:\n%s", got)
	}
	if o, i := moves(src, tgt); o != 0 || i != 0 {
		t.Fatalf("sessions left behind: %d outbound, %d inbound", o, i)
	}
	if a := src.counter("move.aborted"); a != 1 {
		t.Fatalf("move.aborted = %d", a)
	}
}

// (d) An object-scoped session is relayed its object's commits only, and
// takes no part in strict mode or admission.
func TestObjectSessionRelaysOnlyItsObject(t *testing.T) {
	_, src, tgt, _ := moveFixture(t, 0)
	key := sessionKey{peer: tgt.addr, scope: objectScope(6)}
	if err := src.plane.openOutbound(key); err != nil {
		t.Fatal(err)
	}
	src.mustCommit(6, "a", "before-begin") // the relay is not on yet
	if err := src.plane.openOutbound(key); err == nil {
		t.Fatal("second move of a moving object accepted")
	}
	if _, err := tgt.plane.openInbound(src.addr, objectScope(9), 0, telemetry.SpanContext{}); err == nil {
		t.Fatal("sender began relaying an object it is not moving")
	}
	s, err := tgt.plane.openInbound(src.addr, key.scope, 0, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	src.mustCommit(6, "a", "relayed")
	src.mustCommit(8, "x", "another object")
	s.modeMu.Lock()
	var f replication.Frame
	if n := len(s.buffer); n != 1 || f.Decode(s.buffer[0]) != nil || fmt.Sprint(f.Objects) != "[6]" {
		t.Fatalf("buffered %d relays (objects %v), want object 6's one commit", n, f.Objects)
	}
	s.modeMu.Unlock()
	if f, g := src.counter("move.forwards"), src.counter("move.forward_gaps"); f != 1 || g != 0 {
		t.Fatalf("move.forwards = %d, move.forward_gaps = %d; want 1, 0", f, g)
	}
	if st := src.plane.Sessions(); len(st) != 1 || st[0].Scope != "object:6" || st[0].Forwarded != 1 {
		t.Fatalf("sessions %+v", st)
	}
	// Not epoch-pinned: another reconfiguration does not end the session.
	src.dir.SetOverride(99, 1)
	if _, err := s.call(MethodFetch, encodeFetchReq(&fetchReq{sessionReq: s.req})); err != nil {
		t.Fatalf("fetch after an unrelated epoch bump: %v", err)
	}
	for _, m := range []string{MethodPromote, MethodAdmit} {
		if _, err := s.call(m, encodeSessionReq(&s.req)); err == nil {
			t.Fatalf("%s accepted for an object session", m)
		}
	}
	if g, _ := src.dir.Lookup(0); len(g.Backups) != 0 {
		t.Fatalf("object session was admitted as a backup: %+v", g)
	}
}

// (e) move.end keeps the copy iff the directory maps the object to the
// target's group, and the janitor settles an abandoned session the same way.
func TestInboundCopyKeptIffOwned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		owned   bool
		janitor bool
	}{
		{"end/not-owned", false, false},
		{"end/owned", true, false},
		{"janitor/not-owned", false, true},
		{"janitor/owned", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			timeout := time.Duration(0) // default: no reclaim during the test
			if tc.janitor {
				timeout = 100 * time.Millisecond
			}
			dir, src, tgt, _ := moveFixture(t, timeout)
			want := dump(t, src.db)
			key := sessionKey{peer: tgt.addr, scope: objectScope(6)}
			if err := src.plane.openOutbound(key); err != nil {
				t.Fatal(err)
			}
			offer := encodeSessionReq(&sessionReq{peer: src.addr, scope: key.scope})
			if _, err := src.pool.Call(tgt.addr, MethodMoveOffer, offer); err != nil {
				t.Fatalf("offer: %v", err)
			}
			if got := dump(t, tgt.db); got != want || inboundMoves(tgt) != 1 {
				t.Fatalf("after offer: %d sessions, copy:\n%s", inboundMoves(tgt), got)
			}
			src.plane.end(key) // the source goes quiet
			if tc.owned {
				dir.SetOverride(6, 1)
			}
			if tc.janitor {
				// The session is retired first, its copy settled right after.
				waitUntil(t, "janitor reclaim", func() bool {
					if tc.owned {
						return tgt.counter("move.received") == 1
					}
					return inboundMoves(tgt) == 0 && dump(t, tgt.db) == ""
				})
				if got := tgt.counter("move.sessions_reclaimed"); got != 1 {
					t.Fatalf("move.sessions_reclaimed = %d", got)
				}
			} else if _, err := src.pool.Call(tgt.addr, MethodMoveEnd, encodeMoveEnd(&moveEndReq{object: 6})); err != nil {
				t.Fatalf("move.end: %v", err)
			}
			if inboundMoves(tgt) != 0 {
				t.Fatal("session survived")
			}
			got, received := dump(t, tgt.db), tgt.counter("move.received")
			if tc.owned && (got != want || received != 1) {
				t.Fatalf("owned copy not kept (move.received = %d):\n%s", received, got)
			}
			if !tc.owned && (got != "" || received != 0) {
				t.Fatalf("copy the group does not own kept (move.received = %d):\n%s", received, got)
			}
		})
	}
}

// (f) A joiner that begins a session and then dies must not tax its
// sender's commit path forever: forwards that have failed continuously for
// the timeout drop the session, async sessions included.
func TestDeadJoinerSessionExpires(t *testing.T) {
	dir, snd, _ := pair(t, true, 0)
	snd.plane.failTimeout = 50 * time.Millisecond
	// The scripted joiner: accepts forwards, drives nothing.
	joiner := rpc.NewServer()
	joiner.Handle(MethodForward, func([]byte) ([]byte, error) { return nil, nil })
	jaddr, err := joiner.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	begin := encodeSessionReq(&sessionReq{peer: jaddr, epoch: dir.Epoch()})
	if _, err := snd.pool.Call(snd.addr, MethodBegin, begin); err != nil {
		t.Fatalf("begin: %v", err)
	}
	snd.mustCommit(1, "f", "v")
	if st := snd.plane.Sessions(); len(st) != 1 || st[0].Forwarded != 1 || st[0].Strict {
		t.Fatalf("sessions %+v, want one async session with one forward", st)
	}
	joiner.Close()

	deadline := time.Now().Add(10 * time.Second)
	for i := 0; len(snd.plane.Sessions()) != 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("session of a dead joiner still open after %d failed forwards: %+v",
				snd.counter("recovery.forward_gaps"), snd.plane.Sessions())
		}
		snd.mustCommit(1, "f", fmt.Sprint(i)) // async: a failed forward is a gap, not a commit error
		time.Sleep(5 * time.Millisecond)
	}
	gaps := snd.counter("recovery.forward_gaps")
	if gaps == 0 {
		t.Fatal("no forward ever failed")
	}
	for i := 0; i < 5; i++ {
		snd.mustCommit(1, "f", "after")
	}
	if got := snd.counter("recovery.forward_gaps"); got != gaps {
		t.Fatalf("recovery.forward_gaps grew %d → %d after the session expired", gaps, got)
	}
	if snd.plane.active.Load() != 0 {
		t.Fatal("commit path still pays for a session")
	}
}

// (g) A joiner that gives up ends its session before it stops listening, and
// a strict relay already on its way to it must still land: the commit it
// carries is acknowledged, not withheld (its client would retry it, and a
// retried add applies twice).
func TestEndDrainsRelaysInFlight(t *testing.T) {
	dir, snd, _ := pair(t, true, 0)
	// The scripted joiner: parks the first relay, and fails every relay
	// that arrives once it has stopped listening, as a closed inbound
	// session does.
	var stopped atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	joiner := rpc.NewServer()
	joiner.Handle(MethodForward, func([]byte) ([]byte, error) {
		if first.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
		if stopped.Load() {
			return nil, fmt.Errorf("recovery: no inbound replica session")
		}
		return nil, nil
	})
	jaddr, err := joiner.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	req := encodeSessionReq(&sessionReq{peer: jaddr, epoch: dir.Epoch()})
	for _, m := range []string{MethodBegin, MethodPromote} {
		if _, err := snd.pool.Call(snd.addr, m, req); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}

	committed := make(chan error, 1)
	go func() { committed <- snd.commit(1, "k", "v") }()
	<-parked
	ended := make(chan error, 1)
	go func() {
		_, err := snd.pool.Call(snd.addr, MethodEnd, req)
		ended <- err
	}()
	select {
	case err := <-ended:
		// End came back with the relay still out: the joiner stops
		// listening now, and the relay lands on a closed session.
		stopped.Store(true)
		ended <- err
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-committed; err != nil {
		t.Fatalf("commit withheld by a relay to a session that gave up: %v", err)
	}
	if err := <-ended; err != nil {
		t.Fatalf("end: %v", err)
	}
	if len(snd.plane.Sessions()) != 0 {
		t.Fatalf("sessions %+v after end, want none", snd.plane.Sessions())
	}
}
