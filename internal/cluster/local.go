package cluster

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"lambdastore/internal/coordinator"
	"lambdastore/internal/shard"
)

// LocalOptions describes an aggregated deployment stood up in one process
// on loopback: the benches' systems under test, the chaos suite's victim,
// the examples' and tests' clusters.
type LocalOptions struct {
	// Groups is the topology: Groups[g] nodes form replica group g, the
	// first of them its initial primary.
	Groups []int
	// Coordinators is the coordinator ensemble's size (0 is one replica).
	Coordinators int
	// Coord is what every ensemble member runs.
	Coord coordinator.Options
	// DataRoot is where the deployment's own scratch directory (one
	// subdirectory per node, removed by Close) is created; "" is the
	// system temp directory.
	DataRoot string
	// Node is every node's configuration. Addr, DataDir, GroupID and
	// Coordinators are filled in per node.
	Node NodeOptions
	// Client is the deployment client's configuration (Coordinators filled
	// in).
	Client ClientConfig
}

// Slot is one node's place in a Local. Addr, DataDir and Group are fixed at
// boot and survive Kill and Restart; Node is nil while the node is down.
type Slot struct {
	Addr    string
	DataDir string // also the node's wal.sync fault key
	Group   uint64
	Node    *Node
}

// Local is a running LocalOptions: nodes, coordinator ensemble and client.
// It is not safe for concurrent Kill/Restart.
type Local struct {
	// Slots holds the nodes in group-major order (group 0's primary first).
	Slots []*Slot
	// Coord is the coordinator ensemble.
	Coord *coordinator.Ensemble
	// Client refreshes its view from Coord.
	Client *Client

	opts LocalOptions
	root string
}

// StartLocal stands the deployment up and returns once it is ready for
// traffic: every node's published role is the one the configuration gives
// it — so the first write finds a primary that knows its backups — and a
// majority of failure detectors watches every node.
//
// The ensemble starts, the nodes start against it, and the groups go
// through the coordinator; the directory the last round chose is installed
// on every node at once (a newer one a node fetched meanwhile is kept), so
// readiness does not wait for the nodes' next configuration fetch, D/4
// away, and as a new deployment's first view, so no primary's first write
// waits out a lease barrier. Every node runs the cadence its failure detector's timeout D gives
// (coordinator.Cadence), so a lease always ends before the detector can
// promote around it; a same-package test may set a node's share itself.
func StartLocal(opts LocalOptions) (_ *Local, err error) {
	c := opts.Coord.Cadence()
	o := &opts.Node
	o.heartbeat, o.leaseTTL, o.moveSession = cmp.Or(o.heartbeat, c.Heartbeat), cmp.Or(o.leaseTTL, c.Lease), cmp.Or(o.moveSession, c.MoveSession)
	l := &Local{opts: opts}
	defer func() {
		if err != nil {
			l.Close()
		}
	}()
	if l.root, err = os.MkdirTemp(opts.DataRoot, "lambdastore-*"); err != nil {
		return nil, err
	}
	if l.Coord, err = coordinator.StartEnsemble(max(opts.Coordinators, 1), opts.Coord); err != nil {
		return nil, err
	}
	l.opts.Node.Coordinators = l.Coord.Addrs()
	groups := make([]shard.Group, len(opts.Groups))
	for g, replicas := range opts.Groups {
		groups[g].ID = uint64(g)
		for r := 0; r < replicas; r++ {
			s := &Slot{Addr: "127.0.0.1:0", DataDir: filepath.Join(l.root, fmt.Sprintf("node%d", len(l.Slots))), Group: uint64(g)}
			l.Slots = append(l.Slots, s)
			if err = l.Restart(len(l.Slots) - 1); err != nil {
				return nil, err
			}
			if s.Addr = s.Node.Addr(); r == 0 {
				groups[g].Primary = s.Addr
			} else {
				groups[g].Backups = append(groups[g].Backups, s.Addr)
			}
		}
	}
	cfg := opts.Client
	cfg.Coordinators = l.Coord.Addrs()
	if l.Client, err = NewClient(cfg); err != nil {
		return nil, err
	}
	var chosen *shard.Directory
	for _, g := range groups {
		if chosen, err = l.Client.coord.SetGroup(g); err != nil {
			return nil, fmt.Errorf("cluster: install group %d: %w", g.ID, err)
		}
	}
	addrs := make([]string, len(l.Slots))
	for i, s := range l.Slots {
		addrs[i] = s.Addr
		s.Node.role.boot(chosen)
	}
	err = l.Await(10*time.Second, "every node to take its role and be watched by the failure detectors", func() bool {
		view, err := l.View()
		if err != nil || !l.Coord.Watching(addrs) {
			return false
		}
		for _, s := range l.Slots {
			g, _ := view.Group(s.Group)
			if r := s.Node.role.load(); r.primary != (g.Primary == s.Addr) || !slices.Equal(r.group.Replicas(), g.Replicas()) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	l.Client.refresh()
	return l, nil
}

// Restart starts slot i's node on the slot's address and data directory —
// at boot, and after a Kill as a faithful crash recovery: same identity,
// state replayed from WAL and SSTs. A node whose group evicted it meanwhile
// comes up outside the group, catches up and re-admits itself.
func (l *Local) Restart(i int) error {
	s := l.Slots[i]
	if s.Node != nil {
		return fmt.Errorf("cluster: node %d already up", i)
	}
	o := l.opts.Node
	o.Addr, o.DataDir, o.GroupID = s.Addr, s.DataDir, s.Group
	node, err := StartNode(o)
	if err != nil {
		return fmt.Errorf("cluster: start node %d: %w", i, err)
	}
	s.Node = node
	return nil
}

// Kill stops slot i's node: connections drop and heartbeats stop, with no
// handoff beyond what Close's own shutdown does.
func (l *Local) Kill(i int) error {
	s := l.Slots[i]
	if s.Node == nil {
		return fmt.Errorf("cluster: node %d already down", i)
	}
	node := s.Node
	s.Node = nil
	return node.Close()
}

// Nodes returns the running nodes in slot order.
func (l *Local) Nodes() []*Node {
	var nodes []*Node
	for _, s := range l.Slots {
		if s.Node != nil {
			nodes = append(nodes, s.Node)
		}
	}
	return nodes
}

// View returns the configuration as the coordinator ensemble answers it now.
func (l *Local) View() (*shard.Directory, error) {
	return l.Client.coord.GetConfig()
}

// Group returns one group's current membership from View.
func (l *Local) Group(id uint64) (shard.Group, error) {
	d, err := l.View()
	if err != nil {
		return shard.Group{}, err
	}
	g, ok := d.Group(id)
	if !ok {
		return g, fmt.Errorf("cluster: group %d not configured", id)
	}
	return g, nil
}

// Primary resolves a group's current primary to its slot index.
func (l *Local) Primary(group uint64) (int, error) {
	g, err := l.Group(group)
	if err != nil {
		return -1, err
	}
	for i, s := range l.Slots {
		if s.Addr == g.Primary {
			return i, nil
		}
	}
	return -1, fmt.Errorf("cluster: primary %s of group %d is not a node of this deployment", g.Primary, group)
}

// Await polls cond until it holds, or fails after timeout naming what never
// happened and the configuration at that point. It is the one wait in
// everything driving a Local: membership changes land when a failure
// detector fires or a heartbeat is answered, not when a call returns.
func (l *Local) Await(timeout time.Duration, what string, cond func() bool) error {
	if poll(timeout, cond) {
		return nil
	}
	var groups []shard.Group
	d, err := l.View()
	if err == nil {
		groups = d.Groups()
	}
	return fmt.Errorf("cluster: timed out waiting for %s (groups %+v, err %v)", what, groups, err)
}

// poll reports whether cond came to hold within timeout.
func poll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
	return true
}

// Close stops client, nodes and ensemble and removes the scratch
// directory. It is safe on a partly started Local, and to call twice.
func (l *Local) Close() {
	if l.Client != nil {
		l.Client.Close()
	}
	for _, s := range l.Slots {
		if node := s.Node; node != nil {
			s.Node = nil
			node.Close()
		}
	}
	if l.Coord != nil {
		l.Coord.Close()
		l.Coord = nil
	}
	if l.root != "" {
		os.RemoveAll(l.root)
	}
}
