package coordinator

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/paxos"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

// newCluster builds n coordinator replicas over an in-process transport.
func newCluster(t *testing.T, n int, opts Options) ([]*Service, *paxos.LocalTransport) {
	t.Helper()
	trans := paxos.NewLocalTransport()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	var services []*Service
	for _, id := range ids {
		svc := New(id, ids, trans, opts, telemetry.NewRegistry())
		trans.Register(svc.Node())
		svc.Start()
		t.Cleanup(svc.Close)
		services = append(services, svc)
	}
	return services, trans
}

func TestCommandRoundTrip(t *testing.T) {
	c := &Command{
		Kind:          cmdPromote,
		Group:         shard.Group{ID: 3, Primary: "p:1", Backups: []string{"b:1", "b:2"}},
		GroupID:       3,
		FailedPrimary: "p:1",
		NewPrimary:    "b:1",
		Object:        42,
		TargetGroup:   1,
		Epoch:         9,
	}
	dec, err := DecodeCommand(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != cmdPromote || dec.GroupID != 3 || dec.FailedPrimary != "p:1" ||
		dec.NewPrimary != "b:1" || dec.Object != 42 || dec.TargetGroup != 1 || dec.Epoch != 9 {
		t.Fatalf("decoded %+v", dec)
	}
	if len(dec.Group.Backups) != 2 || dec.Group.Primary != "p:1" {
		t.Fatalf("group %+v", dec.Group)
	}
	if _, err := DecodeCommand(nil); err == nil {
		t.Fatal("empty command decoded")
	}
}

func TestSetGroupReplicatesToAll(t *testing.T) {
	services, _ := newCluster(t, 3, Options{HeartbeatTimeout: time.Hour})
	g := shard.Group{ID: 0, Primary: "s1:7000", Backups: []string{"s2:7000"}}
	if _, err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	// The proposer's directory reflects it immediately; peers learn it via
	// the proposal's learn fan-out.
	for i, svc := range services {
		d := svc.Directory()
		got, err := d.Lookup(0)
		if err != nil || got.Primary != "s1:7000" {
			t.Fatalf("replica %d directory: %+v %v", i, got, err)
		}
	}
}

func TestPromotionGuardIdempotent(t *testing.T) {
	services, _ := newCluster(t, 3, Options{HeartbeatTimeout: time.Hour})
	g := shard.Group{ID: 0, Primary: "p", Backups: []string{"b1", "b2"}}
	if _, err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	promote := &Command{Kind: cmdPromote, GroupID: 0, FailedPrimary: "p", NewPrimary: "b1"}
	if _, err := services[1].ProposeCommand(promote); err != nil {
		t.Fatal(err)
	}
	// A duplicate promotion against the already-replaced primary is a
	// no-op: b2 must not usurp b1.
	dup := &Command{Kind: cmdPromote, GroupID: 0, FailedPrimary: "p", NewPrimary: "b2"}
	if _, err := services[2].ProposeCommand(dup); err != nil {
		t.Fatal(err)
	}
	got, err := services[0].Directory().Lookup(0)
	if err != nil || got.Primary != "b1" {
		t.Fatalf("primary = %q, %v", got.Primary, err)
	}
}

func TestOverrideCommands(t *testing.T) {
	services, _ := newCluster(t, 3, Options{HeartbeatTimeout: time.Hour})
	for gid := uint64(0); gid < 2; gid++ {
		g := shard.Group{ID: gid, Primary: "p"}
		if _, err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := services[0].ProposeCommand(&Command{Kind: cmdSetOverride, Object: 4, TargetGroup: 1}); err != nil {
		t.Fatal(err)
	}
	g, err := services[1].Directory().Lookup(4)
	if err != nil || g.ID != 1 {
		t.Fatalf("override lookup: %d, %v", g.ID, err)
	}
	if _, err := services[0].ProposeCommand(&Command{Kind: cmdClearOverride, Object: 4}); err != nil {
		t.Fatal(err)
	}
	g, _ = services[2].Directory().Lookup(4)
	if g.ID != 0 {
		t.Fatalf("after clear: %d", g.ID)
	}
}

// TestAddBackupEpochFence covers the rejoin admission command: a fence
// matching the current epoch admits the joiner; a stale fence (the
// configuration changed since the catch-up was certified) is a no-op;
// re-admitting an existing member is idempotent; a zero fence is
// unguarded.
func TestAddBackupEpochFence(t *testing.T) {
	services, _ := newCluster(t, 3, Options{HeartbeatTimeout: time.Hour})
	g := shard.Group{ID: 0, Primary: "p", Backups: []string{"b1"}}
	if _, err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	epoch := services[0].Directory().Epoch()

	// Matching fence: the joiner becomes a backup on every replica.
	if _, err := services[0].ProposeCommand(&Command{Kind: cmdAddBackup, GroupID: 0, NewPrimary: "b2", Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	for i, svc := range services {
		got, err := svc.Directory().Lookup(0)
		if err != nil || len(got.Backups) != 2 || got.Backups[1] != "b2" {
			t.Fatalf("replica %d after admit: %+v %v", i, got, err)
		}
	}
	if got := services[0].reg.Counter("coord.rejoins.0").Value(); got != 1 {
		t.Fatalf("rejoins = %d, want 1", got)
	}

	// Stale fence: the epoch moved when b2 was admitted, so an admission
	// certified against the old configuration must not take effect.
	if _, err := services[1].ProposeCommand(&Command{Kind: cmdAddBackup, GroupID: 0, NewPrimary: "b3", Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	got, _ := services[0].Directory().Lookup(0)
	for _, b := range got.Backups {
		if b == "b3" {
			t.Fatalf("stale-fenced admission took effect: %+v", got)
		}
	}
	if got := services[0].reg.Counter("coord.rejoins.0").Value(); got != 1 {
		t.Fatalf("rejoins after fenced no-op = %d, want 1", got)
	}

	// Duplicate admission at the current epoch: idempotent no-op.
	cur := services[0].Directory().Epoch()
	if _, err := services[0].ProposeCommand(&Command{Kind: cmdAddBackup, GroupID: 0, NewPrimary: "b2", Epoch: cur}); err != nil {
		t.Fatal(err)
	}
	if got := services[0].reg.Counter("coord.rejoins.0").Value(); got != 1 {
		t.Fatalf("rejoins after duplicate = %d, want 1", got)
	}

	// Zero fence: unguarded, applies regardless of epoch drift.
	if _, err := services[2].ProposeCommand(&Command{Kind: cmdAddBackup, GroupID: 0, NewPrimary: "b3"}); err != nil {
		t.Fatal(err)
	}
	got, _ = services[1].Directory().Lookup(0)
	if len(got.Backups) != 3 || got.Backups[2] != "b3" {
		t.Fatalf("unfenced admission: %+v", got)
	}
	// Each effective admission is counted once, by the replica whose
	// proposal made it take effect.
	if got := services[0].reg.Counter("coord.rejoins.0").Value() + services[2].reg.Counter("coord.rejoins.0").Value(); got != 2 {
		t.Fatalf("rejoins after unfenced = %d, want 2", got)
	}
}

func TestFailureDetectorPromotes(t *testing.T) {
	services, _ := newCluster(t, 3, Options{
		HeartbeatTimeout: 100 * time.Millisecond,
	})
	g := shard.Group{ID: 0, Primary: "prim", Backups: []string{"back"}}
	if _, err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	// Both nodes heartbeat, then the primary goes silent while the backup
	// keeps beating.
	stop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				for _, svc := range services {
					svc.Heartbeat("back")
				}
			}
		}
	}()
	defer close(stop)
	for _, svc := range services {
		svc.Heartbeat("prim")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := services[0].Directory().Lookup(0)
		if err == nil && got.Primary == "back" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failure detector never promoted (primary %q)", got.Primary)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestNeverHeartbeatedNodeNotDeclaredDead(t *testing.T) {
	services, _ := newCluster(t, 1, Options{
		HeartbeatTimeout: 30 * time.Millisecond,
	})
	g := shard.Group{ID: 0, Primary: "silent", Backups: []string{"alive"}}
	if _, err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	services[0].Heartbeat("alive")
	time.Sleep(100 * time.Millisecond)
	// "silent" never heartbeated at all (e.g. configured before boot):
	// the detector must not kill it on zero evidence.
	got, err := services[0].Directory().Lookup(0)
	if err != nil || got.Primary != "silent" {
		t.Fatalf("primary = %q (demoted without evidence)", got.Primary)
	}
}

// TestCadenceDerivesFromTimeout pins the one failover clock: at the default
// timeout the cadence is every node's default timing, and at every timeout
// a lease ends within half of it and a node heartbeats at least four times
// in it.
func TestCadenceDerivesFromTimeout(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		timeout time.Duration
		want    Cadence
	}{
		{0, Cadence{Heartbeat: 500 * ms, Sweep: 500 * ms, Lease: 500 * ms, MoveSession: 10 * time.Second}},
		{2 * time.Second, Cadence{Heartbeat: 500 * ms, Sweep: 500 * ms, Lease: 500 * ms, MoveSession: 10 * time.Second}},
		{300 * ms, Cadence{Heartbeat: 75 * ms, Sweep: 75 * ms, Lease: 150 * ms, MoveSession: 1500 * ms}},
		{400 * ms, Cadence{Heartbeat: 100 * ms, Sweep: 100 * ms, Lease: 200 * ms, MoveSession: 2 * time.Second}},
		{10 * time.Second, Cadence{Heartbeat: 2500 * ms, Sweep: 2500 * ms, Lease: 500 * ms, MoveSession: 50 * time.Second}},
		{time.Hour, Cadence{Heartbeat: 15 * time.Minute, Sweep: 15 * time.Minute, Lease: 500 * ms, MoveSession: 5 * time.Hour}},
	} {
		got := Options{HeartbeatTimeout: tc.timeout}.Cadence()
		if got != tc.want {
			t.Errorf("timeout %v: cadence %+v, want %+v", tc.timeout, got, tc.want)
		}
		d := cmp.Or(tc.timeout, 2*time.Second)
		if got.Lease > d/2 || got.Heartbeat > d/4 || got.Sweep > d/4 || got.Heartbeat <= 0 {
			t.Errorf("timeout %v: cadence %+v breaks lease <= D/2, heartbeat and sweep <= D/4", tc.timeout, got)
		}
	}
}

// agree checks that every replica serves replica 1's directory, holding
// groups 0..n-1.
func agree(t *testing.T, services []*Service, n int) {
	t.Helper()
	ref := services[0].Directory()
	if got := len(ref.Groups()); got != n {
		t.Fatalf("replica 1 holds %d groups, want %d", got, n)
	}
	for i, svc := range services {
		d := svc.Directory()
		if d.Epoch() != ref.Epoch() || len(d.Groups()) != n {
			t.Errorf("replica %d serves epoch %d with %d groups; replica 1 epoch %d with %d",
				i+1, d.Epoch(), len(d.Groups()), ref.Epoch(), n)
		}
	}
}

// TestMissedLearnHeals: replica 3 misses one change while it is cut off,
// then hears three more and proposes one of its own. Every replica then
// serves the same directory: a learner adopts the next chosen value whole,
// so a missed change leaves no gap. And a replica that missed the last
// change, with nothing changing after it, catches up at its next sweep's
// pull.
func TestMissedLearnHeals(t *testing.T) {
	services, trans := newCluster(t, 3, Options{HeartbeatTimeout: time.Hour})
	setGroup := func(via int, gid uint64) {
		t.Helper()
		g := shard.Group{ID: gid, Primary: fmt.Sprintf("s%d:7000", gid)}
		if _, err := services[via].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
			t.Fatal(err)
		}
	}
	trans.Disconnect(3)
	setGroup(0, 0)
	trans.Reconnect(3)
	for gid := uint64(1); gid <= 3; gid++ {
		setGroup(0, gid)
	}
	setGroup(2, 4)
	agree(t, services, 5)

	trans.Disconnect(3)
	setGroup(1, 5)
	trans.Reconnect(3)
	if got := len(services[2].Directory().Groups()); got != 5 {
		t.Fatalf("cut-off replica holds %d groups before its sweep", got)
	}
	services[2].sweep()
	agree(t, services, 6)
}

// TestStateStaysBounded: a thousand configuration changes leave each
// replica's acceptor file one record of the current state — as large as
// after the first change, plus what the directory itself grew by.
func TestStateStaysBounded(t *testing.T) {
	dir := t.TempDir()
	services, _ := newCluster(t, 3, Options{HeartbeatTimeout: time.Hour})
	paths := make([]string, len(services))
	for i, svc := range services {
		paths[i] = filepath.Join(dir, fmt.Sprintf("acceptor-%d.log", i+1))
		stable, err := paxos.OpenFileStable(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		svc.Node().SetStable(stable)
	}
	g := shard.Group{ID: 0, Primary: "s0:7000", Backups: []string{"s1:7000"}}
	change := func(i int) {
		t.Helper()
		if _, err := services[i%3].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
			t.Fatal(err)
		}
	}
	sizes := func() []int {
		t.Helper()
		out := make([]int, len(paths))
		for i, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := paxos.DecodeState(data); err != nil {
				t.Fatalf("%s is not one state record: %v", p, err)
			}
			out[i] = len(data)
		}
		return out
	}
	change(0)
	first, firstValue := sizes(), len(services[0].Node().Learned().Value)
	for i := 1; i < 1000; i++ {
		change(i)
	}
	// The record holds the directory twice (voted and learned) and three
	// ballots, whose rounds a thousand changes lengthen by a varint byte
	// or two each.
	grown := 2*(len(services[0].Node().Learned().Value)-firstValue) + 3*2
	for i, size := range sizes() {
		if size > first[i]+grown {
			t.Errorf("replica %d's file went from %d to %d bytes over 1000 changes (directory growth allows %d)", i+1, first[i], size, first[i]+grown)
		}
	}
	if got := services[1].Directory().Epoch(); got != 1000 {
		t.Fatalf("epoch after 1000 changes = %d", got)
	}
}

// cutTransport fails every message its replica sends while cut is set.
type cutTransport struct {
	*paxos.LocalTransport
	cut *atomic.Bool
}

func (c cutTransport) Prepare(peer uint64, b paxos.Ballot) (*paxos.Reply, error) {
	if c.cut.Load() {
		return nil, paxos.ErrUnreachable
	}
	return c.LocalTransport.Prepare(peer, b)
}

func (c cutTransport) Accept(peer uint64, v *paxos.Versioned) (*paxos.Reply, error) {
	if c.cut.Load() {
		return nil, paxos.ErrUnreachable
	}
	return c.LocalTransport.Accept(peer, v)
}

func (c cutTransport) Pull(peer uint64) (*paxos.Versioned, error) {
	if c.cut.Load() {
		return nil, paxos.ErrUnreachable
	}
	return c.LocalTransport.Pull(peer)
}

// TestRejoiningReplicaRestartsProbation: a replica cut off from its peers
// and from every heartbeat while the others promote b1 learns the promotion
// when it is back — and must not take b1's silence, which was its own, for
// b1's death, even when b2's heartbeat reaches it first.
func TestRejoiningReplicaRestartsProbation(t *testing.T) {
	const timeout = 50 * time.Millisecond
	trans := paxos.NewLocalTransport()
	var cut atomic.Bool
	ids := []uint64{1, 2, 3}
	var services []*Service
	for _, id := range ids {
		var tr paxos.Transport = trans
		if id == 3 {
			tr = cutTransport{trans, &cut}
		}
		svc := New(id, ids, tr, Options{HeartbeatTimeout: timeout}, telemetry.NewRegistry())
		trans.Register(svc.Node())
		services = append(services, svc)
	}
	beat := func(addr string, on ...*Service) {
		for _, svc := range on {
			svc.Heartbeat(addr)
		}
	}
	g := shard.Group{ID: 0, Primary: "p", Backups: []string{"b1", "b2"}}
	if _, err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	for _, svc := range services {
		svc.sweep()
		beat("p", svc)
		beat("b1", svc)
		beat("b2", svc)
	}

	cut.Store(true)
	trans.Disconnect(3)
	time.Sleep(2 * timeout)
	beat("b1", services[:2]...)
	beat("b2", services[:2]...)
	services[2].sweep() // cut off: sees everyone silent, reaches no peer
	services[0].sweep() // promotes b1 over the silent p
	if got, _ := services[1].Directory().Group(0); got.Primary != "b1" {
		t.Fatalf("connected replicas' primary = %q, want b1", got.Primary)
	}

	cut.Store(false)
	trans.Reconnect(3)
	beat("b2", services[2])
	services[2].sweep()
	for i, svc := range services {
		got, _ := svc.Directory().Group(0)
		if n := svc.PromoteCounts()[0]; n != 1 || got.Primary != "b1" {
			t.Fatalf("replica %d: primary %q after %d promotions, want b1 after 1", i+1, got.Primary, n)
		}
	}
}
