package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
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
// callbacks act on a directory both nodes share by pointer.
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
	locking int   // LockObject calls made (mu)
	cutOver error // what CutOver fails with, nil to commit (mu)
	// cutOverDelay is how long CutOver takes to decide (mu).
	cutOverDelay time.Duration
	// afterAdmit, if set, runs once Admit has added the joiner (mu).
	afterAdmit func()
	applied    []*store.Batch
	// onApply, if set, runs before each Apply reaches the store (under the
	// session's applyMu for chunks and forwards): a test parks a chunk here
	// to commit at the sender inside the fetch → apply window.
	onApply func(object uint64, b *store.Batch)
	// onGroup, if set, runs in the group hook once GuardCommit returned: a
	// test parks a group there.
	onGroup func()
}

// noReclaim is a move-session timeout no test outlasts: the janitor
// reclaims nothing while one runs.
const noReclaim = time.Hour

func startTestNode(t *testing.T, dir *shard.Directory, group uint64, moveTimeout time.Duration) *testNode {
	t.Helper()
	n := &testNode{
		t: t, group: group, srv: rpc.NewServer(), pool: rpc.NewPool(nil),
		reg: telemetry.NewRegistry(), dir: dir,
		objMu: make(map[uint64]*sync.Mutex),
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
			n.mu.Lock()
			defer n.mu.Unlock()
			if n.afterAdmit != nil {
				n.afterAdmit()
			}
			return nil
		},
		LockObject: func(object uint64) (func(), error) {
			m := n.objectLock(object)
			n.mu.Lock()
			n.locking++
			n.mu.Unlock()
			m.Lock()
			return m.Unlock, nil
		},
		// The freeze write puts a mark at the object's header key, through
		// the group path; restore deletes it (no fixture has a header).
		Freeze: func(object, target uint64) (func() error, error) {
			put := func(v []byte) error {
				b := store.NewBatch()
				if v == nil {
					b.Delete(headerKey(object))
				} else {
					b.Put(headerKey(object), v)
				}
				return n.apply(object, b)
			}
			return func() error { return put(nil) }, put(movedMark)
		},
		CutOver: func(object, target uint64) error {
			n.mu.Lock()
			delay := n.cutOverDelay
			n.mu.Unlock()
			time.Sleep(delay)
			n.mu.Lock()
			defer n.mu.Unlock()
			if n.cutOver == nil {
				dir.SetOverride(object, target)
			}
			return n.cutOver
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

// headerKey is an object's header key; a freeze puts movedMark there.
func headerKey(object uint64) []byte { return objKey(object, "\x00") }

var movedMark = []byte("moved")

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

// parkFirstApply parks n's next Apply for object (a chunk: the test commits
// nothing between begin and the pull) until release is called, and returns
// a channel that closes once it is parked.
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

// (a) syncRange removes keys the sender no longer has, and a forward that
// lands while a range is being rebuilt applies after the rebuild — not in
// the middle, where the chunk fetched before it would overwrite it.
func TestSyncRangeReplacesRangeAtomically(t *testing.T) {
	dir, snd, rcv := pair(t, true, noReclaim)
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
		t.Fatalf("forward applied inside a range rebuild (commit returned %v)", err)
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

// (b) Commits made after begin apply at the receiver as they arrive, in
// commit order, before any range is pulled; the pull then leaves it equal to
// the sender.
func TestForwardsApplyOnArrival(t *testing.T) {
	dir, snd, rcv := pair(t, true, noReclaim)
	snd.mustCommit(7, "k", "v0")
	var mu sync.Mutex
	var order []string
	rcv.setOnApply(func(_ uint64, b *store.Batch) {
		// A relayed batch aliases its request frame, which the server
		// recycles once the handler returns: record the values now.
		mu.Lock()
		defer mu.Unlock()
		b.ForEach(func(_ byte, _, v []byte) error { //nolint:errcheck
			order = append(order, string(v))
			return nil
		})
	})
	s, err := rcv.plane.openInbound(snd.addr, scope{}, dir.Epoch(), telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		snd.mustCommit(7, "k", fmt.Sprintf("v%d", i))
	}
	snd.mustCommit(7, "late", "only-forwarded")
	mu.Lock()
	got := fmt.Sprint(order)
	mu.Unlock()
	if want := "[v1 v2 v3 only-forwarded]"; got != want {
		t.Fatalf("applied before any pull: %s, want %s", got, want)
	}
	if got := rcv.get(7, "k"); got != "v3" {
		t.Fatalf("k = %q after its relays, want v3", got)
	}
	start, end := objectRange(7)
	if err := s.syncRange(start, end, 7); err != nil {
		t.Fatal(err)
	}
	if got, want := dump(t, rcv.db), dump(t, snd.db); got != want {
		t.Fatalf("receiver:\n%swant:\n%s", got, want)
	}
}

// A rejoin's throttle paces its pulls outside applyMu: a relay — and the
// sender's commit, which waits on it — applies while the joiner sleeps.
func TestThrottleDoesNotHoldRelays(t *testing.T) {
	dir, snd, rcv := pair(t, true, noReclaim)
	snd.mustCommit(7, "big", strings.Repeat("x", 1000))
	rcv.plane.opts.MaxBytesPerSec = 1000 // the range's ~1 KB paces a 1 s sleep
	s, err := rcv.plane.openInbound(snd.addr, scope{}, dir.Epoch(), telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	pulled := make(chan struct{})
	var once sync.Once
	rcv.setOnApply(func(uint64, *store.Batch) { once.Do(func() { close(pulled) }) })
	synced := make(chan error, 1)
	go func() {
		start, end := objectRange(7)
		synced <- s.syncRange(start, end, 7)
	}()
	<-pulled
	begin := time.Now()
	snd.mustCommit(7, "k", "during the sleep")
	if d := time.Since(begin); d > 500*time.Millisecond {
		t.Fatalf("a commit waited %v on the joiner's throttle", d)
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if got, want := dump(t, rcv.db), dump(t, snd.db); got != want {
		t.Fatalf("receiver:\n%swant:\n%s", got, want)
	}
}

// (c), replica scope: a forward that fails during the transfer ends the
// session, and the commit it carried is acknowledged. The joiner's next
// fetch finds the session gone; its next session pulls what it missed and is
// admitted.
func TestRejoinHealsDroppedForward(t *testing.T) {
	dir, snd, rcv := pair(t, true, noReclaim)
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
	if err := <-done; err == nil {
		t.Fatal("a rejoin whose session a failed relay ended succeeded")
	}
	if n := len(snd.plane.Sessions()); n != 0 {
		t.Fatalf("%d sender sessions after a failed relay", n)
	}
	if err := rcv.plane.syncOnce(snd.addr, dir.Epoch()); err != nil {
		t.Fatalf("second rejoin: %v", err)
	}
	if got := snd.counter("recovery.forward_gaps"); got != 1 {
		t.Fatalf("recovery.forward_gaps = %d, want 1", got)
	}
	if got := rcv.get(3, "f"); got != "v1" {
		t.Fatalf("next session did not repair the gap: object 3 = %q", got)
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

// A relay that fails while the round's last chunk is being applied ends the
// session with no fetch left to notice: admission is what refuses it, before
// anything is proposed, so the joiner returns at once instead of waiting out
// the membership deadline an admit whose reply was lost needs — and its
// next session is admitted.
func TestRefusedAdmitReturnsAtOnce(t *testing.T) {
	dir, snd, rcv := pair(t, true, noReclaim)
	const objects = 5
	for id := uint64(1); id <= objects; id++ {
		snd.mustCommit(id, "f", "v0")
	}
	parked, release := parkFirstApply(rcv, objects)
	type result struct {
		err  error
		took time.Duration
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		err := rcv.plane.syncOnce(snd.addr, dir.Epoch())
		done <- result{err, time.Since(start)}
	}()
	<-parked
	fault.Add(fault.Rule{Site: MethodForward, To: rcv.addr, Action: fault.Error, Count: 1})
	snd.mustCommit(objects, "f", "v1")
	released := time.Now()
	release()
	r := <-done
	if !refused(r.err) {
		t.Fatalf("syncOnce = %v, want a refused admission", r.err)
	}
	if since := time.Since(released); since > time.Second {
		t.Fatalf("a refused admission returned %v after the last chunk (session %v)", since, r.took)
	}
	if err := rcv.plane.syncOnce(snd.addr, dir.Epoch()); err != nil {
		t.Fatalf("next session: %v", err)
	}
	if got, want := dump(t, rcv.db), dump(t, snd.db); got != want {
		t.Fatalf("joiner after its next session:\n%swant:\n%s", got, want)
	}
}

// An admission that is revoked before the joiner sees it (an eviction right
// after it) leaves a view past the session's epoch without the joiner, which
// no membership can follow: the joiner begins again at once instead of
// waiting out the membership deadline, and its next session is admitted.
func TestRevokedAdmissionReturnsAtOnce(t *testing.T) {
	dir, snd, rcv := pair(t, true, noReclaim)
	snd.mustCommit(1, "f", "v0")
	snd.mu.Lock()
	snd.afterAdmit = func() {
		g, _ := dir.Group(0)
		g.Backups = slices.DeleteFunc(slices.Clone(g.Backups), func(a string) bool { return a == rcv.addr })
		dir.SetGroup(g)
	}
	snd.mu.Unlock()
	start := time.Now()
	if err := rcv.plane.syncOnce(snd.addr, dir.Epoch()); err == nil {
		t.Fatal("a joiner whose admission was revoked reported itself a member")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a revoked admission returned after %v", took)
	}
	snd.mu.Lock()
	snd.afterAdmit = nil
	snd.mu.Unlock()
	if err := rcv.plane.syncOnce(snd.addr, dir.Epoch()); err != nil {
		t.Fatalf("next session: %v", err)
	}
	if g, _ := dir.Group(0); !slices.Contains(g.Backups, rcv.addr) {
		t.Fatalf("the joiner is not a backup after its next session: %+v", g)
	}
}

// Commits keep landing between the joiner's digest scan and the sender's,
// yet the rejoin's one round certifies it: no commit fails, the joiner is
// admitted, and it ends equal to the sender.
func TestRejoinCertifiesUnderSustainedWrites(t *testing.T) {
	dir, snd, rcv := pair(t, true, noReclaim)
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

// beginRound runs a rejoin's steps by hand up to admission: rcv opens a
// replica session at snd and runs its round.
func beginRound(t *testing.T, dir *shard.Directory, snd, rcv *testNode) *inbound {
	t.Helper()
	s, err := rcv.plane.openInbound(snd.addr, scope{}, dir.Epoch(), telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rcv.plane.round(s); err != nil {
		t.Fatal(err)
	}
	return s
}

// A relay that fails after the round leaves the sender holding a write the
// joiner lacks, a gap no later step looks for. With every recovery.forward
// failing, each concurrent commit is still acknowledged (a joiner is not yet
// a backup), the first failure ends the session so admission refuses it, and
// the joiner's next session heals it.
func TestAdmitRefusesLostRelay(t *testing.T) {
	dir, snd, rcv := pair(t, true, noReclaim)
	const objects = 4
	for id := uint64(1); id <= objects; id++ {
		snd.mustCommit(id, "k", "v0")
	}
	s := beginRound(t, dir, snd, rcv)
	fault.Add(fault.Rule{Site: MethodForward, To: rcv.addr, Action: fault.Error})
	failed := make(chan error, 3)
	var writers sync.WaitGroup
	for w := range 3 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := range 20 {
				if err := snd.commit(uint64(i%objects+1), fmt.Sprint("w", w), fmt.Sprint(i)); err != nil {
					failed <- err
					return
				}
			}
		}()
	}
	writers.Wait()
	close(failed)
	for err := range failed {
		t.Fatalf("a commit whose relay failed was not acknowledged: %v", err)
	}
	if snd.counter("recovery.forward_gaps") == 0 {
		t.Fatal("recovery.forward_gaps = 0: no relay failed")
	}
	if _, err := s.call(MethodAdmit, encodeSessionReq(&s.req)); err == nil {
		t.Fatalf("admitted a joiner holding %q while the sender holds %q", rcv.get(1, "w0"), snd.get(1, "w0"))
	}
	if g, _ := dir.Group(0); slices.Contains(g.Backups, rcv.addr) {
		t.Fatalf("refused joiner is a backup: group %+v", g)
	}
	fault.Reset()
	rcv.plane.closeInbound(s)
	if err := rcv.plane.syncOnce(snd.addr, dir.Epoch()); err != nil {
		t.Fatalf("next session: %v", err)
	}
	if got, want := dump(t, rcv.db), dump(t, snd.db); got != want {
		t.Fatalf("joiner after its next session:\n%swant:\n%s", got, want)
	}
}

// A write group whose hook began before any session opened took no commit
// guard, so admission does not wait for it; its write was in the store
// before the session began, so the joiner pulls it. It relays nothing:
// admission's argument — every relay sent before it landed or ended the
// session — covers guarded relays only, and one of this group could fail on
// the joiner's closed session after admission, counting a gap the joiner
// never had.
func TestGroupBeforeBeginRelaysNothing(t *testing.T) {
	dir, snd, rcv := pair(t, true, noReclaim)
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

	s := beginRound(t, dir, snd, rcv)
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
	if f, g := snd.counter("recovery.forwards"), snd.counter("recovery.forward_gaps"); f != 0 || g != 0 {
		t.Fatalf("recovery.forwards = %d, recovery.forward_gaps = %d; want the group not relayed", f, g)
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

// A move with no lost forward streams the object's payload once.
func TestMoveStreamsPayloadOnce(t *testing.T) {
	dir, src, tgt, payload := moveFixture(t, noReclaim)
	want := dump(t, src.db)
	if err := src.plane.Move(6, tgt.addr, 1); err != nil {
		t.Fatalf("move: %v", err)
	}
	if got := tgt.counter("move.bytes_streamed"); got != payload {
		t.Fatalf("move.bytes_streamed = %d, want the payload %d", got, payload)
	}
	if c := tgt.counter("move.chunks"); c != 1 {
		t.Fatalf("move.chunks = %d, want 1", c)
	}
	if got := dump(t, tgt.db); got != want {
		t.Fatalf("target:\n%swant:\n%s", got, want)
	}
	// The source keeps the freeze's mark and nothing else; the target,
	// whose session ended before the freeze, never saw the mark.
	if got, mark := dump(t, src.db), fmt.Sprintf("%x=%s\n", headerKey(6), movedMark); got != mark {
		t.Fatalf("source after the move:\n%swant only the mark:\n%s", got, mark)
	}
	if g, _ := dir.Lookup(6); g.ID != 1 {
		t.Fatalf("object 6 on group %d after the move", g.ID)
	}
	if o, i := moves(src, tgt); o != 0 || i != 0 {
		t.Fatalf("sessions left behind: %d outbound, %d inbound", o, i)
	}
	if got := tgt.counter("move.received"); got != 1 {
		t.Fatalf("move.received = %d", got)
	}
}

// (c), object scope: a forward that fails while the target pulls aborts the
// move — the source counted the gap, so its seal fails — and the object
// stays at the source; the next move carries it whole.
func TestMoveAbortsOnDroppedForward(t *testing.T) {
	dir, src, tgt, _ := moveFixture(t, noReclaim)
	parked, release := parkFirstApply(tgt, 6)
	done := make(chan error, 1)
	go func() { done <- src.plane.Move(6, tgt.addr, 1) }()
	<-parked
	fault.Add(fault.Rule{Site: MethodForward, To: tgt.addr, Action: fault.Error, Count: 1})
	src.mustCommit(6, "b", "rewritten")
	release()
	if err := <-done; err == nil {
		t.Fatal("move sealed over a copy missing a relayed commit")
	}
	if g, _ := dir.Lookup(6); g.ID != 0 {
		t.Fatalf("aborted move left object 6 on group %d", g.ID)
	}
	if g, a := src.counter("move.forward_gaps"), src.counter("move.aborted"); g != 1 || a != 1 {
		t.Fatalf("move.forward_gaps = %d, move.aborted = %d; want 1, 1", g, a)
	}
	if got := dump(t, tgt.db); got != "" {
		t.Fatalf("target kept a copy it does not own:\n%s", got)
	}
	want := dump(t, src.db)
	if err := src.plane.Move(6, tgt.addr, 1); err != nil {
		t.Fatalf("second move: %v", err)
	}
	if got := dump(t, tgt.db); got != want {
		t.Fatalf("target:\n%swant:\n%s", got, want)
	}
}

// A move whose session a failed relay ended aborts at its seal even after a
// second Move of the object registered a session under the same key, and its
// deferred end leaves that session registered: sessions end by identity, not
// by key. The second move then carries the object whole.
func TestMoveSealChecksItsOwnSession(t *testing.T) {
	dir, src, tgt, _ := moveFixture(t, noReclaim)
	parked, release := parkFirstApply(tgt, 6)
	first := make(chan error, 1)
	go func() { first <- src.plane.Move(6, tgt.addr, 1) }()
	<-parked
	fault.Add(fault.Rule{Site: MethodForward, To: tgt.addr, Action: fault.Error, Count: 1})
	src.mustCommit(6, "b", "rewritten") // its relay fails: the first session ends
	want := dump(t, src.db)
	// Hold the first move in the object's admission, short of its seal.
	lock := src.objectLock(6)
	lock.Lock()
	release()
	waitUntil(t, "the first move to wait for the admission", func() bool {
		src.mu.Lock()
		defer src.mu.Unlock()
		return src.locking == 1
	})
	// The second move registers its session, then waits out a delayed offer
	// while the first one seals.
	fault.Add(fault.Rule{Site: MethodMoveOffer, To: tgt.addr, Action: fault.Delay, Delay: time.Second, Count: 1})
	second := make(chan error, 1)
	go func() { second <- src.plane.Move(6, tgt.addr, 1) }()
	waitUntil(t, "the second move's session", func() bool { return len(src.plane.Sessions()) == 1 })
	lock.Unlock()
	if err := <-first; err == nil {
		t.Fatal("a move whose relay failed sealed on a later move's session")
	}
	if st := src.plane.Sessions(); len(st) != 1 || st[0].Scope != "object:6" {
		t.Fatalf("sessions %+v after the first move ended, want the second move's", st)
	}
	if err := <-second; err != nil {
		t.Fatalf("second move: %v", err)
	}
	if got := dump(t, tgt.db); got != want {
		t.Fatalf("target:\n%swant:\n%s", got, want)
	}
	if g, _ := dir.Lookup(6); g.ID != 1 {
		t.Fatalf("object 6 on group %d after the second move", g.ID)
	}
	if a, c := src.counter("move.aborted"), src.counter("move.completed"); a != 1 || c != 1 {
		t.Fatalf("move.aborted = %d, move.completed = %d; want 1, 1", a, c)
	}
}

// A target session that went quiet for longer than MoveSessionTimeout —
// the pull done, no write to relay, the source waiting for the object's
// admission — is reclaimed with its copy. The seal must see that and
// abort: a cutover would name a group that holds nothing.
func TestMoveAbortsWhenTargetReclaimedSession(t *testing.T) {
	dir, src, tgt, _ := moveFixture(t, 100*time.Millisecond)
	want := dump(t, src.db)
	lock := src.objectLock(6)
	lock.Lock() // an invocation that holds the object past the timeout
	done := make(chan error, 1)
	go func() { done <- src.plane.Move(6, tgt.addr, 1) }()
	waitUntil(t, "the target's janitor to reclaim the session", func() bool {
		return tgt.counter("move.sessions_reclaimed") == 1
	})
	lock.Unlock()
	if err := <-done; err == nil {
		t.Fatal("move cut over to a target that reclaimed its copy")
	}
	if g, _ := dir.Lookup(6); g.ID != 0 {
		t.Fatalf("aborted move left object 6 on group %d", g.ID)
	}
	if got := dump(t, src.db); got != want {
		t.Fatalf("source:\n%swant:\n%s", got, want)
	}
	if got := dump(t, tgt.db); got != "" {
		t.Fatalf("target kept a copy it does not own:\n%s", got)
	}
	if a := src.counter("move.aborted"); a != 1 {
		t.Fatalf("move.aborted = %d", a)
	}
}

// A cutover that outlasts the target's idle timeout (a coordinator round
// held up) commits a copy the target still holds: the source touches the
// target's session until the cutover is decided, so the janitor never
// reclaims it — it would see a session whose object it does not own yet,
// and delete the one copy the directory is about to name.
func TestSlowCutoverKeepsTargetCopy(t *testing.T) {
	const timeout = 100 * time.Millisecond
	dir, src, tgt, _ := moveFixture(t, timeout)
	want := dump(t, src.db)
	src.mu.Lock()
	src.cutOverDelay = 4 * timeout
	src.mu.Unlock()
	if err := src.plane.Move(6, tgt.addr, 1); err != nil {
		t.Fatalf("move: %v", err)
	}
	if n := tgt.counter("move.sessions_reclaimed"); n != 0 {
		t.Fatalf("the target reclaimed %d sessions while the cutover was pending", n)
	}
	if g, _ := dir.Lookup(6); g.ID != 1 {
		t.Fatalf("object 6 on group %d after the move", g.ID)
	}
	if got := dump(t, tgt.db); got != want {
		t.Fatalf("target after the move:\n%swant:\n%s", got, want)
	}
}

// A move whose cutover fails after the freeze aborts: the freeze's mark is
// taken back at the source, which serves the object as before, and the
// target sheds its copy.
func TestMoveAbortAfterFreezeRestoresHeader(t *testing.T) {
	dir, src, tgt, _ := moveFixture(t, noReclaim)
	want := dump(t, src.db)
	src.mu.Lock()
	src.cutOver = errors.New("no quorum")
	src.mu.Unlock()
	if err := src.plane.Move(6, tgt.addr, 1); err == nil || !strings.Contains(err.Error(), "cutover") {
		t.Fatalf("move over a failed cutover: %v", err)
	}
	if g, _ := dir.Lookup(6); g.ID != 0 {
		t.Fatalf("aborted move left object 6 on group %d", g.ID)
	}
	if got := dump(t, src.db); got != want {
		t.Fatalf("source:\n%swant:\n%s", got, want)
	}
	waitUntil(t, "the target to shed its copy", func() bool { return dump(t, tgt.db) == "" })
}

// A move that cannot seal aborts: the object stays, writable, at the
// source, and the target sheds its partial copy.
func TestMoveAbortLeavesObjectAtSource(t *testing.T) {
	dir, src, tgt, _ := moveFixture(t, noReclaim)
	want := dump(t, src.db)
	// Every relay fails once the offer's own chunk is fetched: the source
	// counts the gap, and its seal refuses the cutover.
	parked, release := parkFirstApply(tgt, 6)
	done := make(chan error, 1)
	go func() { done <- src.plane.Move(6, tgt.addr, 1) }()
	<-parked
	fault.Add(fault.Rule{Site: MethodForward, To: tgt.addr, Action: fault.Error})
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
// takes no part in admission.
func TestObjectSessionRelaysOnlyItsObject(t *testing.T) {
	_, src, tgt, _ := moveFixture(t, noReclaim)
	key := sessionKey{peer: tgt.addr, scope: objectScope(6)}
	if _, err := src.plane.openOutbound(key); err != nil {
		t.Fatal(err)
	}
	src.mustCommit(6, "a", "before-begin") // the relay is not on yet
	if _, err := src.plane.openOutbound(key); err == nil {
		t.Fatal("second move of a moving object accepted")
	}
	if _, err := tgt.plane.openInbound(src.addr, objectScope(9), 0, telemetry.SpanContext{}); err == nil {
		t.Fatal("sender began relaying an object it is not moving")
	}
	s, err := tgt.plane.openInbound(src.addr, key.scope, 0, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var applied []uint64
	tgt.setOnApply(func(object uint64, _ *store.Batch) {
		mu.Lock()
		applied = append(applied, object)
		mu.Unlock()
	})
	src.mustCommit(6, "a", "relayed")
	src.mustCommit(8, "x", "another object")
	mu.Lock()
	got := fmt.Sprint(applied)
	mu.Unlock()
	if got != "[6]" || tgt.get(6, "a") != "relayed" || tgt.get(8, "x") != "" {
		t.Fatalf("applied relays of objects %s (6/a = %q), want object 6's one commit", got, tgt.get(6, "a"))
	}
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
	if _, err := s.call(MethodAdmit, encodeSessionReq(&s.req)); err == nil {
		t.Fatal("admit accepted for an object session")
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
			timeout := noReclaim
			if tc.janitor {
				timeout = 100 * time.Millisecond
			}
			dir, src, tgt, _ := moveFixture(t, timeout)
			want := dump(t, src.db)
			key := sessionKey{peer: tgt.addr, scope: objectScope(6)}
			out, err := src.plane.openOutbound(key)
			if err != nil {
				t.Fatal(err)
			}
			offer := encodeSessionReq(&sessionReq{peer: src.addr, scope: key.scope})
			if _, err := src.pool.Call(tgt.addr, MethodMoveOffer, offer); err != nil {
				t.Fatalf("offer: %v", err)
			}
			if got := dump(t, tgt.db); got != want || inboundMoves(tgt) != 1 {
				t.Fatalf("after offer: %d sessions, copy:\n%s", inboundMoves(tgt), got)
			}
			src.plane.end(out) // the source goes quiet
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
// sender's commit path: the first forward that fails ends the session, and
// the commit it carried is acknowledged.
func TestDeadJoinerSessionExpires(t *testing.T) {
	dir, snd, _ := pair(t, true, noReclaim)
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
	if st := snd.plane.Sessions(); len(st) != 1 || st[0].Forwarded != 1 {
		t.Fatalf("sessions %+v, want one session with one forward", st)
	}
	joiner.Close()

	snd.mustCommit(1, "f", "to a dead joiner") // a failed forward is a gap, not a commit error
	if st := snd.plane.Sessions(); len(st) != 0 {
		t.Fatalf("session of a dead joiner still open after a failed forward: %+v", st)
	}
	if got := snd.counter("recovery.forward_gaps"); got != 1 {
		t.Fatalf("recovery.forward_gaps = %d, want 1", got)
	}
	for i := 0; i < 5; i++ {
		snd.mustCommit(1, "f", "after")
	}
	if got := snd.counter("recovery.forward_gaps"); got != 1 {
		t.Fatalf("recovery.forward_gaps grew to %d after the session ended", got)
	}
	if snd.plane.active.Load() != 0 {
		t.Fatal("commit path still pays for a session")
	}
}

// A second move of an object can open at the source once a failed relay
// ended the first's session there. Its offer is refused while the target
// still holds the first move's session, whose chunk may still be landing: a
// second copy pulled beside it would be overwritten by that older chunk
// after its own cutover, losing an acknowledged write. Both moves abort, and
// the object keeps serving at the source with that write.
func TestOfferRefusedWhileTargetReceives(t *testing.T) {
	dir, src, tgt, _ := moveFixture(t, noReclaim)
	parked, release := parkFirstApply(tgt, 6)
	first := make(chan error, 1)
	go func() { first <- src.plane.Move(6, tgt.addr, 1) }()
	<-parked
	fault.Add(fault.Rule{Site: MethodForward, To: tgt.addr, Action: fault.Error, Count: 1})
	src.mustCommit(6, "b", "rewritten") // its relay fails: the first session ends
	want := dump(t, src.db)
	second := make(chan error, 1)
	go func() { second <- src.plane.Move(6, tgt.addr, 1) }()
	// An aborting move's move.end waits out the parked chunk at the target.
	waitUntil(t, "the second move to end", func() bool {
		return len(second) > 0 || src.counter("move.aborted") == 1
	})
	release()
	if err := <-second; err == nil || !strings.Contains(err.Error(), "already receiving") {
		t.Fatalf("second move: %v, want its offer refused", err)
	}
	if err := <-first; err == nil {
		t.Fatal("a move whose relay failed sealed")
	}
	if g, _ := dir.Lookup(6); g.ID != 0 {
		t.Fatalf("object 6 on group %d after two aborted moves", g.ID)
	}
	if got := dump(t, src.db); got != want {
		t.Fatalf("source:\n%swant:\n%s", got, want)
	}
	if got := dump(t, tgt.db); got != "" {
		t.Fatalf("target kept a copy it does not own:\n%s", got)
	}
}
