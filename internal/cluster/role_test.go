package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/replication"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

// fakeLeases is a read-lease holder whose validity the test sets.
type fakeLeases struct{ valid atomic.Bool }

func (f *fakeLeases) Valid() bool { return f.valid.Load() }
func (f *fakeLeases) Revoke()     {}

// dirAt builds a directory of groups with overrides, at epoch (which must
// be at least len(groups)+len(overrides)).
func dirAt(epoch uint64, overrides map[uint64]uint64, groups ...shard.Group) *shard.Directory {
	d := shard.NewDirectory(nil)
	for _, g := range groups {
		d.SetGroup(g)
	}
	for obj, g := range overrides {
		d.SetOverride(obj, g)
	}
	for d.Epoch() < epoch {
		d.SetGroup(groups[0])
	}
	return d
}

// g0 is this node's group 0 with the given primary and backups; g1 is group
// 1, led elsewhere. Objects hash to group id % 2.
func g0(primary string, backups ...string) shard.Group {
	return shard.Group{ID: 0, Primary: primary, Backups: backups}
}

var g1 = shard.Group{ID: 1, Primary: "other"}

// TestNextView drives the view transition with an injected clock: which
// changes revoke leases, which arm the write-ack barrier, and what the
// published role says.
func TestNextView(t *testing.T) {
	const ttl = 100 * time.Millisecond
	t0 := time.Unix(1000, 0)
	for _, tc := range []struct {
		name     string
		from, to *shard.Directory
		revoke   bool
		group    time.Duration // ackDelay
		primary  bool
		deposed  bool
	}{
		{name: "same epoch is a no-op",
			from: dirAt(5, nil, g0("me", "b1"), g1), to: dirAt(5, nil, g0("me", "b1"), g1),
			primary: true},
		{name: "promotion arms the group barrier and revokes",
			from: dirAt(5, nil, g0("b1", "me"), g1), to: dirAt(6, nil, g0("me"), g1),
			revoke: true, group: ttl, primary: true},
		{name: "a backup evicted under this primary arms the group barrier",
			from: dirAt(5, nil, g0("me", "b1", "b2"), g1), to: dirAt(6, nil, g0("me", "b1"), g1),
			revoke: true, group: ttl, primary: true},
		{name: "a backup added arms nothing",
			from: dirAt(5, nil, g0("me", "b1"), g1), to: dirAt(6, nil, g0("me", "b1", "b2"), g1),
			revoke: true, primary: true},
		{name: "an object moved out arms nothing",
			from: dirAt(5, nil, g0("me"), g1), to: dirAt(6, map[uint64]uint64{4: 1}, g0("me"), g1),
			revoke: true, primary: true},
		{name: "deposed",
			from: dirAt(5, nil, g0("me", "b1"), g1), to: dirAt(6, nil, g0("b1", "me"), g1),
			revoke: true, deposed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev, revoke := next(&view{}, tc.from, "me", 0, t0, ttl)
			if revoke || prev.ackDelay(t0) != 0 {
				t.Fatalf("the boot view revoked (%v) or armed a barrier", revoke)
			}
			v, revoke := next(prev, tc.to, "me", 0, t0, ttl)
			if revoke != tc.revoke {
				t.Errorf("revoke = %v, want %v", revoke, tc.revoke)
			}
			if got := v.ackDelay(t0); got != tc.group {
				t.Errorf("group ackDelay = %v, want %v", got, tc.group)
			}
			if v.primary != tc.primary || v.deposed() != tc.deposed {
				t.Errorf("primary %v deposed %v, want %v %v", v.primary, v.deposed(), tc.primary, tc.deposed)
			}
			want := v.group.Backups
			if !tc.primary {
				want = nil
			}
			if !slices.Equal(v.fanout(), want) {
				t.Errorf("fan-out %v, want %v", v.fanout(), want)
			}
		})
	}

	t.Run("barriers carry over until they expire", func(t *testing.T) {
		d5 := dirAt(5, nil, g0("me", "b1", "b2"), g1)
		v, _ := next(&view{}, d5, "me", 0, t0, ttl)
		// t0: b2 evicted → group barrier until t0+ttl.
		v, _ = next(v, dirAt(6, nil, g0("me", "b1"), g1), "me", 0, t0, ttl)
		// t0+ttl/2: object 3 moves in, which arms nothing.
		half := t0.Add(ttl / 2)
		v, _ = next(v, dirAt(7, map[uint64]uint64{3: 0}, g0("me", "b1"), g1), "me", 0, half, ttl)
		if got := v.ackDelay(half); got != ttl/2 {
			t.Fatalf("group barrier did not carry over: ackDelay %v, want %v", got, ttl/2)
		}
		// Past the group barrier, a change that arms nothing drops it.
		late := t0.Add(ttl + time.Millisecond)
		v, _ = next(v, dirAt(8, map[uint64]uint64{3: 0}, g0("me", "b1", "b2"), g1), "me", 0, late, ttl)
		if !v.barrier.IsZero() || v.ackDelay(late) != 0 {
			t.Fatalf("expired group barrier kept: %v", v.barrier)
		}
	})

	t.Run("the same directory again re-derives the role only", func(t *testing.T) {
		d := dirAt(5, nil, g0("b1", "me"), g1)
		v, _ := next(&view{}, d, "me", 0, t0, ttl)
		d.SetGroup(g0("me")) // a static directory edited in place
		v, revoke := next(v, d, "me", 0, t0, ttl)
		if revoke || !v.primary || v.ackDelay(t0) != 0 {
			t.Fatalf("in-place edit: revoke %v primary %v ackDelay %v", revoke, v.primary, v.ackDelay(t0))
		}
	})
}

// TestRoute drives the route decision over published views without a
// node: primary, leased and unleased backup, and a coordinator-managed
// node with no configuration.
func TestRoute(t *testing.T) {
	reg := telemetry.NewRegistry()
	leases := &fakeLeases{}
	m := &roleMachine{
		leases:   leases,
		readOnly: func(_ core.ObjectID, method string) bool { return method == "get" },
		reads:    reg.Counter("reads.served"),
		served:   reg.Counter("reads.backup_served"),
		bounced:  reg.Counter("reads.primary_bounced"),
	}
	publish := func(d *shard.Directory) {
		v, _ := next(&view{}, d, "me", 0, time.Unix(0, 0), time.Second)
		m.cur.Store(v)
	}
	check := func(t *testing.T, err error, hint string) {
		t.Helper()
		if hint == "-" {
			if err != nil {
				t.Fatalf("route = %v, want executed here", err)
			}
			return
		}
		wantRedirect(t, err, hint)
	}

	publish(dirAt(2, nil, g0("me", "b1"), g1))
	check(t, m.route(2, "put"), "-")
	check(t, m.route(2, "get"), "-")
	check(t, m.route(3, "put"), "other") // object 3 hashes to group 1

	publish(dirAt(2, nil, g0("p", "me"), g1))
	leases.valid.Store(true)
	check(t, m.route(2, "get"), "-") // a read, by the method's facts
	check(t, m.route(2, "put"), "p") // a write
	check(t, m.route(2, ""), "p")    // a create, delete or transaction
	leases.valid.Store(false)
	check(t, m.route(2, "get"), "p")
	if r, s, b := m.reads.Value(), m.served.Value(), m.bounced.Value(); r != 2 || s != 1 || b != 1 {
		t.Fatalf("reads %d (one at the primary) served %d bounced %d, want 2, 1 and 1", r, s, b)
	}

	publish(dirAt(3, map[uint64]uint64{2: 1}, g0("me", "b1"), g1))
	check(t, m.route(2, "put"), "other")

	publish(shard.NewDirectory(nil))
	check(t, m.route(2, "put"), "-") // static: a single node runs everything
	m.coordinated = true
	check(t, m.route(2, "put"), "")
}

// TestInstallKeepsNewestView races adopters of views with shuffled epochs:
// whatever order they land in, the installed view is the newest.
func TestInstallKeepsNewestView(t *testing.T) {
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	shipper := replication.NewShipper(pool, nil)
	t.Cleanup(shipper.Close)
	const views = 32
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		m := &roleMachine{leases: &fakeLeases{}, shipper: shipper, now: time.Now, self: "me"}
		m.cur.Store(&view{dir: shard.NewDirectory(nil)})
		dirs := make([]*shard.Directory, views)
		for i := range dirs {
			dirs[i] = dirAt(uint64(i+1), nil, g0("me", "b1"))
		}
		rng.Shuffle(len(dirs), func(i, j int) { dirs[i], dirs[j] = dirs[j], dirs[i] })
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, d := range dirs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				m.install(d, true)
			}()
		}
		close(start)
		wg.Wait()
		if got := m.load().dir.Epoch(); got != views {
			t.Fatalf("round %d: installed epoch %d, want the newest, %d", round, got, views)
		}
	}
}

// TestStalledCoordinatorReplicaSparesHeartbeats: one coordinator replica
// (not the first a node asks for its configuration) stalls toward a primary
// — the primary's messages to it are lost, each waiting out the pool's 30s
// timeout — and its own messages fail, so its detector, which no longer
// hears the primary, cannot act. The other replicas still get every
// heartbeat, so the primary keeps its group for three detector timeouts and
// more.
func TestStalledCoordinatorReplicaSparesHeartbeats(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	opts := coordinated([]int{2}, NodeOptions{})
	l := startLocal(t, opts)
	primary, stalled := l.Slots[0].Addr, l.Coord.Members[2].Addr
	fault.Add(fault.Rule{Site: fault.Wildcard, From: primary, To: stalled, Action: fault.Drop})
	fault.Add(fault.Rule{Site: fault.Wildcard, From: stalled, Action: fault.Error})
	for end := time.Now().Add(3*opts.Coord.HeartbeatTimeout + 2*opts.Coord.Cadence().Sweep); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		g, err := l.Group(0)
		if err != nil {
			t.Fatal(err)
		}
		if g.Primary != primary {
			t.Fatalf("primary %s deposed (group now %s+%v) while only one coordinator replica was stalled", primary, g.Primary, g.Backups)
		}
	}
	if n := fault.Counters()[coordinator.MethodHeartbeat+".drop"]; n != 1 {
		t.Errorf("%d heartbeats lost to the stalled replica, want 1 (the one in flight)", n)
	}
}

// TestPartitionedCoordinatorReplicaConverges: one coordinator replica is cut
// off from everything while a primary fails and the other two promote a
// backup. After the heal the cut-off replica learns the promotion from its
// next sweep's pull, and all three report the same primary and promotion
// count — and keep doing so: the heartbeats it missed while cut off are not
// taken for the new primary's death.
func TestPartitionedCoordinatorReplicaConverges(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	opts := coordinated([]int{3}, NodeOptions{})
	l := startLocal(t, opts)
	coords := l.Coord.Members
	cut := coords[2]
	fault.Partition(cut.Addr, fault.Wildcard)
	fault.Partition(l.Slots[0].Addr, fault.Wildcard)
	await(t, l, 10*time.Second, "the promotion on the two connected replicas", func() bool {
		return coords[0].Service.PromoteCounts()[0] == 1 && coords[1].Service.PromoteCounts()[0] == 1
	})
	if n := cut.Service.PromoteCounts()[0]; n != 0 {
		t.Fatalf("the cut-off replica learned %d promotions", n)
	}
	fault.Heal(cut.Addr, fault.Wildcard)
	agree := func() error {
		want, _ := coords[0].Service.Directory().Group(0)
		for i, m := range coords {
			g, _ := m.Service.Directory().Group(0)
			if n := m.Service.PromoteCounts()[0]; n != 1 || g.Primary != want.Primary {
				return fmt.Errorf("replica %d: primary %s after %d promotions; replica 1: %s after 1", i+1, g.Primary, n, want.Primary)
			}
		}
		return nil
	}
	await(t, l, 4*opts.Coord.Cadence().Sweep, "every replica to agree on the promotion", func() bool { return agree() == nil })
	for end := time.Now().Add(3 * opts.Coord.HeartbeatTimeout); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		if err := agree(); err != nil {
			t.Fatal(err)
		}
	}
}
