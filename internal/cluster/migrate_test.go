package cluster

import (
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/rpc"
)

// movers is the coordinated deployment the move tests share, two groups of
// two replicas: a coordinated boot takes about a second, and every test
// moves objects of its own (newObject), so none sees another's.
var movers struct {
	once sync.Once
	l    *Local
	err  error
	ids  atomic.Uint64
}

func TestMain(m *testing.M) {
	code := m.Run()
	if movers.l != nil {
		movers.l.Close()
	}
	os.Exit(code)
}

// sharedMovers returns the shared deployment, booted with the Counter type
// registered on first use.
func sharedMovers(t *testing.T) *Local {
	t.Helper()
	movers.once.Do(func() {
		opts := coordinated([]int{2, 2}, NodeOptions{})
		opts.Client.MaxRetries = 10
		if movers.l, movers.err = StartLocal(opts); movers.err == nil {
			movers.err = movers.l.Client.RegisterType(counterType(t))
		}
	})
	if movers.err != nil {
		t.Fatalf("shared deployment: %v", movers.err)
	}
	return movers.l
}

// newObject creates a Counter no test has used; it starts in group 0 (even
// ids, two groups).
func newObject(t *testing.T, l *Local) core.ObjectID {
	t.Helper()
	obj := core.ObjectID(1000 + movers.ids.Add(2))
	if err := l.Client.CreateObject("Counter", obj); err != nil {
		t.Fatal(err)
	}
	return obj
}

// primaryOf returns group g's primary node now.
func primaryOf(t *testing.T, l *Local, g uint64) *Node {
	t.Helper()
	i, err := l.Primary(g)
	if err != nil {
		t.Fatal(err)
	}
	return l.Slots[i].Node
}

// groupNodes returns group g's running nodes in slot order.
func groupNodes(l *Local, g uint64) []*Node {
	var nodes []*Node
	for _, s := range l.Slots {
		if s.Group == g && s.Node != nil {
			nodes = append(nodes, s.Node)
		}
	}
	return nodes
}

// homeGroup is obj's group in the coordinator's view.
func homeGroup(t *testing.T, l *Local, obj core.ObjectID) uint64 {
	t.Helper()
	d, err := l.View()
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Lookup(uint64(obj))
	if err != nil {
		t.Fatal(err)
	}
	return g.ID
}

// TestMigrationNeedsACoordinator: a cutover commits only at the
// coordinator, so a static deployment refuses a move before anything is
// frozen or copied. No node's view changes, and the object still serves at
// its old home.
func TestMigrationNeedsACoordinator(t *testing.T) {
	l := startLocal(t, LocalOptions{Groups: []int{2, 2}})
	c := l.Client
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	const obj = 4 // group 0
	if err := c.CreateObject("Counter", obj); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, obj, 42)
	epochs := map[*Node]uint64{}
	for _, n := range l.Nodes() {
		epochs[n] = n.Directory().Epoch()
	}
	err := c.Migrate(obj, 1)
	if err == nil || !strings.Contains(err.Error(), "cluster: migration needs a coordinator") {
		t.Fatalf("migrate without a coordinator: %v", err)
	}
	for n, e := range epochs {
		if got := n.Directory().Epoch(); got != e {
			t.Fatalf("%s's view moved from epoch %d to %d", n.Addr(), e, got)
		}
		if g, err := n.Directory().Lookup(obj); err != nil || g.ID != 0 {
			t.Fatalf("%s maps object %d to group %d, %v", n.Addr(), obj, g.ID, err)
		}
		if n.MoveSessions() != 0 {
			t.Fatalf("%s has a move session", n.Addr())
		}
	}
	for _, s := range l.Slots[2:] {
		if ok, _ := s.Node.Runtime().ObjectExists(obj); ok {
			t.Fatalf("object %d was copied to group 1's %s", obj, s.Addr)
		}
	}
	if res, err := c.Invoke(obj, "add", [][]byte{core.I64Bytes(1)}); err != nil || core.BytesI64(res) != 43 {
		t.Fatalf("object at its old home after the refusal: %d, %v", core.BytesI64(res), err)
	}
}

// TestLiveMigrationUnderWrites hammers one object with concurrent writers
// while it is live-migrated between groups through the coordinator's
// epoch-fenced cutover. Every acknowledged write must survive the move
// (no lost ack), and the final state must live at exactly one group.
// Run under -race this also exercises the forward/seal/freeze paths for
// data races.
func TestLiveMigrationUnderWrites(t *testing.T) {
	l := sharedMovers(t)
	client := l.Client
	obj := newObject(t, l)
	if g, err := client.lookup(obj); err != nil || g.ID != 0 {
		t.Fatalf("object should start in group 0: group %d, %v", g.ID, err)
	}

	// Concurrent writers: each acknowledged add contributes exactly 1 to
	// the count. Stale-routing errors are retried inside the client; an
	// error surfacing here means the op never executed, so it does not
	// count toward the expected total — but in a healthy cluster (no
	// crashes in this test) we expect zero.
	const writers = 4
	var (
		acked   atomic.Int64
		failed  atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		maxSeen atomic.Int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := client.Invoke(obj, "add", [][]byte{core.I64Bytes(1)})
				if err != nil {
					failed.Add(1)
					continue
				}
				acked.Add(1)
				v := core.BytesI64(res)
				for {
					cur := maxSeen.Load()
					if v <= cur || maxSeen.CompareAndSwap(cur, v) {
						break
					}
				}
			}
		}()
	}
	// One reader verifying values never regress — a stale read after
	// cutover (serving the source's frozen copy) would go backwards.
	var readerErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := client.InvokeRead(obj, "get", nil)
			if err != nil {
				continue
			}
			v := core.BytesI64(res)
			if v < last {
				readerErr.Store(errors.New("read regressed: stale copy served after cutover"))
				return
			}
			last = v
			time.Sleep(time.Millisecond)
		}
	}()

	// Let traffic build, then migrate mid-stream.
	time.Sleep(300 * time.Millisecond)
	if err := client.Migrate(obj, 1); err != nil {
		t.Fatalf("live migration failed: %v", err)
	}
	ackedAtCutover := acked.Load()

	// Immediately after the move returns, a read must reflect at least
	// everything acknowledged before the cutover.
	res, err := client.InvokeRead(obj, "get", nil)
	if err != nil {
		t.Fatalf("read after cutover: %v", err)
	}
	if got := core.BytesI64(res); got < ackedAtCutover {
		t.Fatalf("stale read after cutover: got %d, %d writes were acked", got, ackedAtCutover)
	}

	// Keep writing at the new home for a while, then drain.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if e := readerErr.Load(); e != nil {
		t.Fatal(e)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d writes failed during migration (retries exhausted)", failed.Load())
	}

	// No lost ack: the final count equals the acknowledged adds exactly.
	final, err := client.InvokeRead(obj, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := core.BytesI64(final), acked.Load(); got != want {
		t.Fatalf("final count %d != %d acknowledged writes", got, want)
	}
	if ms := maxSeen.Load(); core.BytesI64(final) < ms {
		t.Fatalf("final count %d below a previously returned count %d", core.BytesI64(final), ms)
	}

	// The object now lives in group 1 — present on its primary AND backup
	// (the move replicates to the target's backups before cutover), gone
	// from the source replicas.
	if g, err := client.lookup(obj); err != nil || g.ID != 1 {
		t.Fatalf("directory after move: group %d, %v", g.ID, err)
	}
	for i, n := range groupNodes(l, 1) {
		if _, err := n.Runtime().GetValueField(obj, "count"); err != nil {
			t.Fatalf("target replica %d missing state: %v", i, err)
		}
	}
	source := groupNodes(l, 0)
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err0 := source[0].Runtime().GetValueField(obj, "count")
		_, err1 := source[1].Runtime().GetValueField(obj, "count")
		if errors.Is(err0, core.ErrNotFound) && errors.Is(err1, core.ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("source still holds the object: primary=%v backup=%v", err0, err1)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the object still accepts writes at its new home.
	res, err = client.Invoke(obj, "add", [][]byte{core.I64Bytes(1)})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != acked.Load()+1 {
		t.Fatalf("post-move add = %d, want %d", core.BytesI64(res), acked.Load()+1)
	}
}

// TestFrozenCopyNotServedAfterCutover holds back the source group's news of
// a cutover while the target installs it: the coordinator's answer to the
// source's cutover waits on learns held for a second, and neither source
// replica can fetch the directory. Until its own install the source
// primary keeps granting its backup read leases at the old epoch, so the
// backup's lagging view and valid lease would let it serve its copy. Once
// the target acks a write, a read at the source backup — what a client
// holding the pre-move directory sends — must not answer from the copy
// older than that write: the move's freeze write reached the backup before
// the cutover was proposed, and it answers with a redirect. After the
// move's range delete, it still does, and its runtime reads the object as
// moved to the target group, not as absent.
func TestFrozenCopyNotServedAfterCutover(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	l := sharedMovers(t)
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	obj := newObject(t, l)
	mustAdd(t, l.Client, obj, 42)
	src, tgt := primaryOf(t, l, 0), primaryOf(t, l, 1)
	var backup *Node
	for _, n := range groupNodes(l, 0) {
		if n != src {
			backup = n
		}
	}
	if v := readAt(t, pool, backup.Addr(), obj); v != 42 {
		t.Fatalf("leased read at the source backup = %d, want 42", v)
	}

	replicas := l.Coord.Addrs()
	fault.Add(fault.Rule{Site: "paxos.learn", From: replicas[0], Action: fault.Delay, Delay: time.Second})
	for _, n := range []*Node{src, backup} {
		fault.Add(fault.Rule{Site: coordinator.MethodGetConfig, From: n.Addr(), Action: fault.Error})
	}
	moved := make(chan error, 1)
	go func() { moved <- l.Client.Migrate(obj, 1) }()
	await(t, l, 5*time.Second, "the target to install the cutover", func() bool {
		g, err := tgt.Directory().Lookup(uint64(obj))
		return err == nil && g.ID == 1
	})
	res, err := directInvoke(pool, tgt.Addr(), obj, "add", [][]byte{core.I64Bytes(1)})
	if err != nil || core.BytesI64(res) != 43 {
		t.Fatalf("write at the target = %d, %v; want 43", core.BytesI64(res), err)
	}
	if g, err := src.Directory().Lookup(uint64(obj)); err != nil || g.ID != 0 || len(moved) > 0 {
		t.Fatalf("the source learned of the cutover too early: group %d, %v", g.ID, err)
	}
	res, err = directInvoke(pool, backup.Addr(), obj, "get", nil)
	if err == nil {
		t.Fatalf("the source backup served %d after the target acked 43", core.BytesI64(res))
	}
	if _, ok := ParseNotResponsible(err); !ok {
		t.Fatalf("read at the source backup before the delete: %v, want a redirect", err)
	}

	if err := <-moved; err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if g, err := backup.Directory().Lookup(uint64(obj)); err != nil || g.ID != 0 {
		t.Fatalf("the source backup's view caught up: group %d, %v", g.ID, err)
	}
	await(t, l, 5*time.Second, "the source backup to apply the range delete", func() bool {
		_, err := backup.Runtime().GetValueField(obj, "count")
		return errors.Is(err, core.ErrNotFound)
	})
	_, err = directInvoke(pool, backup.Addr(), obj, "get", nil)
	if _, ok := ParseNotResponsible(err); !ok {
		t.Fatalf("read at the lagging source backup after the delete: %v, want a redirect", err)
	}
	var mark *core.MovedError
	if _, err := backup.Runtime().Invoke(obj, "get", nil); !errors.As(err, &mark) || mark.Group != 1 {
		t.Fatalf("the source backup's runtime after the delete: %v, want the object moved to group 1", err)
	}
	fault.Reset()
	await(t, l, 5*time.Second, "the source backup's view to catch up", func() bool {
		g, err := backup.Directory().Lookup(uint64(obj))
		return err == nil && g.ID == 1
	})
}

// TestConcurrentMovesOfOneObject: two moves of one object to different
// groups overlap. The first ends its session before its freeze, so the
// second passes both entry checks while the first's cutover is held; it
// then waits on the object's admission and, once it has it, finds the
// object homed elsewhere. Exactly one move commits, and the write acked
// before both reads back at the one home. Were the second to go on, its
// target's copy — the first's mark, relayed — would become the object.
func TestConcurrentMovesOfOneObject(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	l := startLocal(t, coordinated([]int{1, 1, 1}, NodeOptions{}))
	c := l.Client
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	const obj = core.ObjectID(3) // group 0 of three
	if err := c.CreateObject("Counter", obj); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, obj, 42)
	src := primaryOf(t, l, 0)

	fault.Add(fault.Rule{Site: coordinator.MethodMigrate, From: src.Addr(), Action: fault.Delay, Delay: time.Second})
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- c.Migrate(obj, 1) }()
	await(t, l, 5*time.Second, "the first move's freeze", func() bool {
		ok, err := src.Runtime().ObjectExists(obj)
		return err == nil && !ok
	})
	go func() { second <- c.Migrate(obj, 2) }()
	await(t, l, 5*time.Second, "the second move's session", func() bool {
		return src.Metrics().Snapshot().Gauges["move.in_flight"] == 1
	})
	if len(first) > 0 {
		t.Fatal("the first move ended before the second began")
	}
	if err := <-first; err != nil {
		t.Fatalf("first move: %v", err)
	}
	if err := <-second; err == nil {
		t.Fatal("the second move committed too")
	}
	fault.Reset()
	if g := homeGroup(t, l, obj); g != 1 {
		t.Fatalf("after both moves the directory names group %d", g)
	}
	res, err := c.Invoke(obj, "add", [][]byte{core.I64Bytes(1)})
	if err != nil || core.BytesI64(res) != 43 {
		t.Fatalf("write after both moves = %d, %v; want 43", core.BytesI64(res), err)
	}
	loser := primaryOf(t, l, 2)
	await(t, l, 5*time.Second, "the second target to shed its copy", func() bool {
		_, err := loser.Runtime().GetValueField(obj, "count")
		return errors.Is(err, core.ErrNotFound)
	})
}

// TestPromotedBackupTakesBackFrozenObject: the source primary fails after
// its freeze write reached its backup and before its cutover's outcome,
// and the cutover never commits. The promoted backup holds the mark while
// the directory still homes the object in its group: it takes the mark
// back on the first request and serves the object. Read as "moved", the
// mark would bounce every request between the two groups for good.
func TestPromotedBackupTakesBackFrozenObject(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	opts := coordinated([]int{2, 1}, NodeOptions{})
	opts.Client.MaxRetries = 10
	l := startLocal(t, opts)
	c := l.Client
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	const obj = core.ObjectID(2) // group 0 of two
	if err := c.CreateObject("Counter", obj); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, obj, 42)
	si, err := l.Primary(0)
	if err != nil {
		t.Fatal(err)
	}
	src := l.Slots[si].Node
	var backup *Node
	for _, n := range groupNodes(l, 0) {
		if n != src {
			backup = n
		}
	}

	// The cutover never reaches the coordinator, and the source learns no
	// newer directory.
	for _, site := range []string{coordinator.MethodMigrate, coordinator.MethodGetConfig} {
		fault.Add(fault.Rule{Site: site, From: src.Addr(), Action: fault.Error})
	}
	moved := make(chan error, 1)
	go func() { moved <- c.Migrate(obj, 1) }()
	await(t, l, 5*time.Second, "the freeze write at the source backup", func() bool {
		_, err := backup.Runtime().Invoke(obj, "get", nil)
		return errors.As(err, new(*core.MovedError))
	})
	// The source fails: nothing it sends arrives any more, the abort's
	// restore included.
	fault.Add(fault.Rule{Site: fault.Wildcard, From: src.Addr(), Action: fault.Error})
	if err := l.Kill(si); err != nil {
		t.Fatal(err)
	}
	if err := <-moved; err == nil {
		t.Fatal("the move committed")
	}
	await(t, l, 10*time.Second, "the backup's promotion", func() bool { return backup.role.load().primary })
	fault.Reset()
	if g := homeGroup(t, l, obj); g != 0 {
		t.Fatalf("after the failed move the directory names group %d", g)
	}
	res, err := c.Invoke(obj, "add", [][]byte{core.I64Bytes(1)})
	if err != nil || core.BytesI64(res) != 43 {
		t.Fatalf("write at the promoted backup = %d, %v; want 43", core.BytesI64(res), err)
	}
	if ok, err := backup.Runtime().ObjectExists(obj); !ok || err != nil {
		t.Fatalf("the promoted backup after the write: exists %v, %v", ok, err)
	}
}

// TestMigrationRoundTripClearsMark moves an object away and straight back
// with no request in between: a mark left by a move away does not outlive
// the object's return. The first source keeps the freeze's mark after its
// range delete; if the move back did not clear it, that group would answer
// every later request with a redirect to the group it moved the object to —
// forever — and its replicas would report the object absent.
func TestMigrationRoundTripClearsMark(t *testing.T) {
	l := sharedMovers(t)
	c := l.Client
	obj := newObject(t, l)
	mustAdd(t, c, obj, 42)
	for _, dest := range []uint64{1, 0} {
		if err := c.Migrate(obj, dest); err != nil {
			t.Fatalf("migrate to group %d: %v", dest, err)
		}
	}
	res, err := c.Invoke(obj, "add", [][]byte{core.I64Bytes(1)})
	if err != nil {
		t.Fatalf("invoke after the round trip: %v", err)
	}
	if got := core.BytesI64(res); got != 43 {
		t.Fatalf("value after the round trip = %d, want 43", got)
	}
	for _, n := range groupNodes(l, 0) {
		if ok, err := n.Runtime().ObjectExists(obj); !ok || err != nil {
			t.Fatalf("%s after the round trip: exists %v, %v", n.Addr(), ok, err)
		}
	}
}

// TestMovesBackAndForthWithBackups moves one object between two replicated
// groups ten times, with a write after each move. Every cutover is a new
// epoch of the coordinator's directory, and the backups fence ships on the
// epoch: a primary that kept stamping an older one after a move would have
// its next ship refused as stale.
func TestMovesBackAndForthWithBackups(t *testing.T) {
	l := sharedMovers(t)
	c := l.Client
	obj := newObject(t, l)
	for i := 0; i < 10; i++ {
		dest := uint64(1 - i%2)
		if err := c.Migrate(obj, dest); err != nil {
			t.Fatalf("move %d to group %d: %v", i, dest, err)
		}
		res, err := c.Invoke(obj, "add", [][]byte{core.I64Bytes(1)})
		if err != nil {
			t.Fatalf("write after move %d: %v", i, err)
		}
		if got := core.BytesI64(res); got != int64(i+1) {
			t.Fatalf("value after move %d = %d, want %d", i, got, i+1)
		}
	}
}

// TestCutoverSurvivesLostCoordinatorReply: the coordinator's answer to a
// cutover is lost after its round went ahead. The node's call to the first
// replica times out while that replica's accepts are held for a second, and
// the other replicas refuse the call, so the node's coordinator client
// fails. That error says nothing about the round, which is chosen a moment
// later: the node reads the directory back, and the move commits. Were the
// move aborted instead, the source would serve the object while the
// directory named the target its home.
func TestCutoverSurvivesLostCoordinatorReply(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	l, err := StartLocal(coordinated([]int{1, 1}, NodeOptions{ClientOptions: &rpc.ClientOptions{Timeout: 300 * time.Millisecond}}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	c := l.Client
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	obj := core.ObjectID(2) // group 0 of two
	if err := c.CreateObject("Counter", obj); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, c, obj, 42)

	replicas := l.Coord.Addrs()
	fault.Add(fault.Rule{Site: "paxos.accept", From: replicas[0], Action: fault.Delay, Delay: time.Second})
	for _, r := range replicas[1:] {
		fault.Add(fault.Rule{Site: coordinator.MethodMigrate, To: r, Action: fault.Error})
	}
	if err := c.Migrate(obj, 1); err != nil {
		t.Fatalf("migrate past a lost coordinator reply: %v", err)
	}
	fault.Reset()
	if g := homeGroup(t, l, obj); g != 1 {
		t.Fatalf("after the move the directory names group %d", g)
	}
	res, err := c.Invoke(obj, "add", [][]byte{core.I64Bytes(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.BytesI64(res); got != 43 {
		t.Fatalf("value after the move = %d, want 43", got)
	}
}

func TestMigrationMovesObject(t *testing.T) {
	l := sharedMovers(t)
	c := l.Client
	obj := newObject(t, l)
	mustAdd(t, c, obj, 42)
	source, target := primaryOf(t, l, 0), primaryOf(t, l, 1)

	if err := c.Migrate(obj, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// The object must now live in group 1 with its state intact.
	if g := homeGroup(t, l, obj); g != 1 {
		t.Fatalf("post-migration lookup: group %d", g)
	}
	res, err := c.Invoke(obj, "add", [][]byte{core.I64Bytes(1)})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != 43 {
		t.Fatalf("count after migration = %d", core.BytesI64(res))
	}
	// State present at the new primary, gone from the old one.
	if _, err := target.Runtime().GetValueField(obj, "count"); err != nil {
		t.Fatalf("state missing at destination: %v", err)
	}
	if _, err := source.Runtime().GetValueField(obj, "count"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("state still at source: %v", err)
	}
	// Other objects on group 0 were never disturbed (microshard property):
	// create one and use it after migration.
	mustAdd(t, c, newObject(t, l), 2)
}

func TestMigrationUnderConcurrentLoad(t *testing.T) {
	// The microshard claim (§4.2): migrating one object must not disrupt
	// computation on other objects, and the migrated object itself must
	// lose no committed writes.
	l := sharedMovers(t)
	c := l.Client
	// One object (group 0) migrates; two more (group 0) stay busy.
	moved, others := newObject(t, l), []core.ObjectID{newObject(t, l), newObject(t, l)}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var otherOps atomic.Int64
	var migratedOps atomic.Int64
	for _, id := range others {
		wg.Add(1)
		go func(id core.ObjectID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Invoke(id, "add", [][]byte{core.I64Bytes(1)}); err != nil {
					t.Errorf("other-object invoke during migration: %v", err)
					return
				}
				otherOps.Add(1)
			}
		}(id)
	}
	// Writer on the migrating object: some invocations may fail during the
	// cutover window (clients retry in production); count the successes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Invoke(moved, "add", [][]byte{core.I64Bytes(1)}); err == nil {
				migratedOps.Add(1)
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	if err := c.Migrate(moved, 1); err != nil {
		t.Fatalf("migrate under load: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if otherOps.Load() == 0 {
		t.Fatal("other objects made no progress during migration")
	}
	// Every acknowledged write to the migrated object must be present.
	res, err := c.Invoke(moved, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != migratedOps.Load() {
		t.Fatalf("migrated object count = %d, acknowledged writes = %d (lost writes)",
			core.BytesI64(res), migratedOps.Load())
	}
	if g := homeGroup(t, l, moved); g != 1 {
		t.Fatalf("object %d in group %d", moved, g)
	}
}
