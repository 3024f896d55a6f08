package cluster

import (
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/shard"
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

// startStatic boots one group per entry of groups, that many nodes each
// running node, on a shared static directory.
func startStatic(t *testing.T, node NodeOptions, groups ...int) ([]*Node, *shard.Directory) {
	t.Helper()
	l := startLocal(t, LocalOptions{Groups: groups, Node: node})
	return l.Nodes(), l.Dir
}

// coordinated is the cluster tests' coordinator-managed deployment: three
// coordinator replicas that declare a node dead after 400ms of silence,
// nodes (running node) heartbeating every 100ms.
func coordinated(groups []int, node NodeOptions) LocalOptions {
	node.HeartbeatInterval = 100 * time.Millisecond
	return LocalOptions{
		Groups:       groups,
		Coordinators: 3,
		Coord:        coordinator.Options{HeartbeatTimeout: 400 * time.Millisecond, CheckInterval: 100 * time.Millisecond},
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
// its slot's address with its data, and in a coordinated deployment
// re-admits itself holding the writes it missed.
func TestLocalBootInvariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts LocalOptions
	}{
		{"static", LocalOptions{Groups: []int{3, 2}}},
		{"coordinated", coordinated([]int{3, 2}, NodeOptions{Rejoin: true})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := startLocal(t, tc.opts)
			view, err := l.View()
			if err != nil {
				t.Fatal(err)
			}
			primaries := map[uint64]int{}
			for i, s := range l.Slots {
				g, ok := view.Group(s.Group)
				r := s.Node.role.Load()
				if !ok || !r.member || r.primary != (g.Primary == s.Addr) || !slices.Equal(r.group.Replicas(), g.Replicas()) {
					t.Errorf("node %d (%s) publishes role %+v, the configuration says %+v", i, s.Addr, *r, g)
				}
				if r.primary {
					primaries[s.Group]++
				}
			}
			for g := range tc.opts.Groups {
				if primaries[uint64(g)] != 1 {
					t.Errorf("group %d has %d primaries", g, primaries[uint64(g)])
				}
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
			if l.Coord != nil {
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
				return member() && node.role.Load().member
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
