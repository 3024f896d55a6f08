package cluster

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/core"
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
// changes revoke leases, which arm a write-ack barrier and for what, and
// what the published role says.
func TestNextView(t *testing.T) {
	const ttl = 100 * time.Millisecond
	t0 := time.Unix(1000, 0)
	for _, tc := range []struct {
		name     string
		from, to *shard.Directory
		revoke   bool
		group    time.Duration            // ackDelay of an object nothing moved
		objects  map[uint64]time.Duration // ackDelay of moved objects
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
		{name: "an object overridden into this group arms its own barrier",
			from: dirAt(5, nil, g0("me"), g1), to: dirAt(6, map[uint64]uint64{3: 0}, g0("me"), g1),
			revoke: true, objects: map[uint64]time.Duration{3: ttl}, primary: true},
		{name: "an object cleared back to its hash home here arms its own barrier",
			from: dirAt(5, map[uint64]uint64{4: 1}, g0("me"), g1), to: dirAt(6, nil, g0("me"), g1),
			revoke: true, objects: map[uint64]time.Duration{4: ttl}, primary: true},
		{name: "an object moved out arms nothing",
			from: dirAt(5, nil, g0("me"), g1), to: dirAt(6, map[uint64]uint64{4: 1}, g0("me"), g1),
			revoke: true, objects: map[uint64]time.Duration{4: 0}, primary: true},
		{name: "deposed",
			from: dirAt(5, nil, g0("me", "b1"), g1), to: dirAt(6, nil, g0("b1", "me"), g1),
			revoke: true, deposed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev, revoke := next(&view{}, tc.from, "me", 0, t0, ttl)
			if revoke || prev.ackDelay(2, t0) != 0 {
				t.Fatalf("the boot view revoked (%v) or armed a barrier", revoke)
			}
			v, revoke := next(prev, tc.to, "me", 0, t0, ttl)
			if revoke != tc.revoke {
				t.Errorf("revoke = %v, want %v", revoke, tc.revoke)
			}
			if got := v.ackDelay(2, t0); got != tc.group {
				t.Errorf("group ackDelay = %v, want %v", got, tc.group)
			}
			for obj, want := range tc.objects {
				if got := v.ackDelay(obj, t0); got != want {
					t.Errorf("ackDelay(%d) = %v, want %v", obj, got, want)
				}
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
		// t0+ttl/2: object 3 moves in → its barrier until t0+3ttl/2.
		half := t0.Add(ttl / 2)
		v, _ = next(v, dirAt(7, map[uint64]uint64{3: 0}, g0("me", "b1"), g1), "me", 0, half, ttl)
		if got := v.ackDelay(2, half); got != ttl/2 {
			t.Fatalf("group barrier did not carry over: ackDelay %v, want %v", got, ttl/2)
		}
		if got := v.ackDelay(3, half); got != ttl {
			t.Fatalf("object barrier ackDelay %v, want %v", got, ttl)
		}
		// Past the group barrier, a change that arms nothing drops it and
		// keeps the object's.
		late := t0.Add(ttl + time.Millisecond)
		v, _ = next(v, dirAt(8, map[uint64]uint64{3: 0}, g0("me", "b1", "b2"), g1), "me", 0, late, ttl)
		if !v.barrier.IsZero() || v.ackDelay(2, late) != 0 {
			t.Fatalf("expired group barrier kept: %v", v.barrier)
		}
		if got := v.ackDelay(3, late); got != ttl/2-time.Millisecond {
			t.Fatalf("object barrier ackDelay %v after the group's expired", got)
		}
		// Past both, nothing is carried.
		v, _ = next(v, dirAt(9, map[uint64]uint64{3: 0}, g0("me", "b1", "b2"), g1), "me", 0, t0.Add(time.Hour), ttl)
		if len(v.objBarriers) != 0 || !v.barrier.IsZero() {
			t.Fatalf("expired barriers carried: %v %v", v.barrier, v.objBarriers)
		}
	})

	t.Run("the same directory again re-derives the role only", func(t *testing.T) {
		d := dirAt(5, nil, g0("b1", "me"), g1)
		v, _ := next(&view{}, d, "me", 0, t0, ttl)
		d.SetGroup(g0("me")) // a static directory edited in place
		v, revoke := next(v, d, "me", 0, t0, ttl)
		if revoke || !v.primary || v.ackDelay(2, t0) != 0 {
			t.Fatalf("in-place edit: revoke %v primary %v ackDelay %v", revoke, v.primary, v.ackDelay(2, t0))
		}
	})
}

// TestRoute drives the route decision over published views without a
// node: primary, leased and unleased backup, fences, and a coordinator-
// managed node with no configuration.
func TestRoute(t *testing.T) {
	reg := telemetry.NewRegistry()
	leases := &fakeLeases{}
	m := &roleMachine{
		leases:   leases,
		readOnly: func(_ core.ObjectID, method string) bool { return method == "get" },
		served:   reg.Counter("reads.backup_served"),
		bounced:  reg.Counter("reads.primary_bounced"),
		fences:   make(map[uint64]string),
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
	check(t, m.route(2, false, "put"), "-")
	check(t, m.route(3, false, "put"), "other") // object 3 hashes to group 1

	publish(dirAt(2, nil, g0("p", "me"), g1))
	leases.valid.Store(true)
	check(t, m.route(2, true, "scan"), "-") // declared read
	check(t, m.route(2, false, "get"), "-") // inferred read
	check(t, m.route(2, false, "put"), "p") // a write
	leases.valid.Store(false)
	check(t, m.route(2, true, "scan"), "p")
	check(t, m.route(2, false, "get"), "p")
	if s, b := m.served.Value(), m.bounced.Value(); s != 2 || b != 2 {
		t.Fatalf("served %d bounced %d, want 2 and 2", s, b)
	}

	publish(dirAt(2, nil, g0("me", "b1"), g1))
	m.fence(2, "next:1")
	check(t, m.route(2, false, "put"), "next:1")
	if _, fenced := m.fencedHint(2); !fenced {
		t.Fatal("the fence cleared before the view moved the object")
	}
	publish(dirAt(3, map[uint64]uint64{2: 1}, g0("me", "b1"), g1))
	check(t, m.route(2, false, "put"), "other")
	if _, fenced := m.fencedHint(2); fenced || m.fenceCount.Load() != 0 {
		t.Fatal("the fence outlived a view that maps the object elsewhere")
	}

	publish(shard.NewDirectory(nil))
	check(t, m.route(2, false, "put"), "-") // static: a single node runs everything
	m.coordinated = true
	check(t, m.route(2, false, "put"), "")
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
