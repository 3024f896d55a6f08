package cluster

import (
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
)

// startLocal is StartLocal under the test's cleanup.
func startLocal(t *testing.T, opts LocalOptions) *Local {
	t.Helper()
	l, err := StartLocal(opts)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

// quiet is a deployment whose failure detector does not fire within a
// test (D is an hour): its view changes only where the test changes it.
func quiet(groups []int, node NodeOptions) LocalOptions {
	return LocalOptions{Groups: groups, Coord: coordinator.Options{HeartbeatTimeout: time.Hour}, Node: node}
}

// startGroups boots a quiet deployment of one group per entry of groups,
// that many nodes each running node, and returns its nodes and client.
func startGroups(t *testing.T, node NodeOptions, groups ...int) ([]*Node, *Client) {
	t.Helper()
	l := startLocal(t, quiet(groups, node))
	return l.Nodes(), l.Client
}

// coordinated is the cluster tests' coordinator-managed deployment: three
// coordinator replicas that declare a node dead after 400ms of silence, and
// nodes running node at the cadence that gives (100ms heartbeats, 200ms
// leases).
func coordinated(groups []int, node NodeOptions) LocalOptions {
	return LocalOptions{
		Groups:       groups,
		Coordinators: 3,
		Coord:        coordinator.Options{HeartbeatTimeout: 400 * time.Millisecond},
		Node:         node,
	}
}

// await fails the test unless cond comes to hold within timeout.
func await(t *testing.T, l *Local, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	if err := l.Await(timeout, what, cond); err != nil {
		t.Fatal(err)
	}
}

// TestLocalBootInvariant pins what StartLocal promises on return — with no
// sleep, every node's published role is the one the configuration gives it,
// each group has exactly one primary and a write to each group is
// acknowledged — and what Kill and Restart promise: a backup comes back on
// its slot's address with its data and, if the detector evicted it
// meanwhile, re-admits itself holding the writes it missed. The quiet row's
// nodes would not fetch the configuration for D/4, a quarter of an hour:
// the boot installs the directory its rounds chose on every node.
func TestLocalBootInvariant(t *testing.T) {
	hourD := quiet([]int{3, 2}, NodeOptions{})
	hourD.Coordinators = 3
	for _, tc := range []struct {
		name   string
		opts   LocalOptions
		evicts bool // the detector evicts the killed backup within the test
	}{
		{"quiet", hourD, false},
		{"coordinated", coordinated([]int{3, 2}, NodeOptions{}), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			l := startLocal(t, tc.opts)
			t.Logf("booted in %v", time.Since(start))
			view, err := l.View()
			if err != nil {
				t.Fatal(err)
			}
			primaries := map[uint64]int{}
			for i, s := range l.Slots {
				g, ok := view.Group(s.Group)
				r := s.Node.role.load()
				if !ok || !r.member || r.primary != (g.Primary == s.Addr) || !slices.Equal(r.group.Replicas(), g.Replicas()) {
					t.Errorf("node %d (%s) publishes role %+v, the configuration says %+v", i, s.Addr, *r, g)
				}
				if r.primary {
					primaries[s.Group]++
				}
				// Every node runs its deployment's detector's cadence.
				c, o := tc.opts.Coord.Cadence(), s.Node.opts
				if o.heartbeat != c.Heartbeat || o.leaseTTL != c.Lease || o.moveSession != c.MoveSession {
					t.Errorf("node %d runs heartbeat %v, lease %v, move session %v; the cadence is %+v", i, o.heartbeat, o.leaseTTL, o.moveSession, c)
				}
			}
			for g := range tc.opts.Groups {
				if primaries[uint64(g)] != 1 {
					t.Errorf("group %d has %d primaries", g, primaries[uint64(g)])
				}
			}
			if got := l.Client.Directory().Epoch(); got != view.Epoch() {
				t.Errorf("the client routes by epoch %d, the configuration is at %d", got, view.Epoch())
			}
			if t.Failed() {
				t.FailNow()
			}

			// Objects 2 and 3 hash to groups 0 and 1.
			c := l.Client
			if err := c.RegisterType(counterType(t)); err != nil {
				t.Fatal(err)
			}
			for _, obj := range []core.ObjectID{2, 3} {
				if err := c.CreateObject("Counter", obj); err != nil {
					t.Fatalf("create %d: %v", obj, err)
				}
				mustAdd(t, c, obj, 5)
			}

			// Slot 1 is a backup of group 0.
			const backup = 1
			addr, want := l.Slots[backup].Addr, int64(5)
			member := func() bool {
				g, err := l.Group(0)
				return err == nil && slices.Contains(g.Backups, addr)
			}
			if err := l.Kill(backup); err != nil {
				t.Fatal(err)
			}
			if tc.evicts {
				// The failure detector evicts it; the group writes on.
				await(t, l, 10*time.Second, "the killed backup's eviction", func() bool {
					_, err := c.Invoke(2, "add", [][]byte{core.I64Bytes(1)})
					return !member() && err == nil
				})
				res, err := c.Invoke(2, "get", nil)
				if err != nil {
					t.Fatal(err)
				}
				want = core.BytesI64(res)
			}
			if err := l.Restart(backup); err != nil {
				t.Fatal(err)
			}
			node := l.Slots[backup].Node
			if node.Addr() != addr {
				t.Fatalf("restarted on %s, the slot's address is %s", node.Addr(), addr)
			}
			await(t, l, 30*time.Second, "the restarted backup to be a member again", func() bool {
				return member() && node.role.load().member
			})
			v, err := node.Runtime().GetValueField(2, "count")
			if err != nil || core.BytesI64(v) != want {
				t.Fatalf("restarted backup holds count %d (%v), want %d", core.BytesI64(v), err, want)
			}
			mustAdd(t, c, 2, 1)
			if v, err := node.Runtime().GetValueField(2, "count"); err != nil || core.BytesI64(v) != want+1 {
				t.Fatalf("a write after the restart left the backup at %d (%v), want %d", core.BytesI64(v), err, want+1)
			}
		})
	}
}

// TestFailedStartNodeLeaksNothing starts a node on an occupied address —
// what a restart on a slot's original address meets while the port is not
// yet released, once per retry. Each failed attempt must take down what it
// had built by then: the lease-renewal and session-janitor goroutines, and
// the data directory's lock.
func TestFailedStartNodeLeaksNothing(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	dataDir := t.TempDir()
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if node, err := StartNode(NodeOptions{Addr: taken.Addr().String(), DataDir: dataDir}); err == nil {
			node.Close()
			t.Fatal("StartNode bound an occupied address")
		}
	}
	if !poll(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before three failed starts, %d after:\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	}
	node, err := StartNode(NodeOptions{Addr: "127.0.0.1:0", DataDir: dataDir})
	if err != nil {
		t.Fatalf("a failed start kept the data directory locked: %v", err)
	}
	node.Close()
}
