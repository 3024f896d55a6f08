package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/core"
	"lambdastore/internal/replication"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

// roleMachine is the node's view of itself (paper §4.2.1): per configuration
// view, whether it is its group's primary (execute writes, ship before the
// reply), a backup (serve reads under a lease) or neither, and which acks wait
// out leases it cannot invalidate. install is its one writer.
type roleMachine struct {
	group       uint64
	coordinated bool // a coordinator owns the view: without one, serve nothing
	ttl         time.Duration
	leases      leaseHolder
	shipper     *replication.Shipper
	readOnly    func(core.ObjectID, string) bool // the method's link-time facts prove it a read
	reads       *telemetry.Counter               // reads served here, as primary or backup
	served      *telemetry.Counter               // ... as a leased backup
	bounced     *telemetry.Counter
	now         func() time.Time // time.Now; same-package tests inject a clock

	mu   sync.Mutex // install's; guards self
	self string
	cur  atomic.Pointer[view]

	// Object fences: while an outbound move quiesces an object, route rejects
	// it before it can wait on the object's lock (one atomic load when none
	// is up). A fence outlives the cutover on purpose — it self-clears only
	// once the view maps the object elsewhere, so a stale view can never let
	// the old home serve post-move requests.
	fenceCount atomic.Int32
	fenceMu    sync.Mutex
	fences     map[uint64]string
}

// leaseHolder is the machine's use of a *replication.LeaseHolder.
type leaseHolder interface {
	Valid() bool
	Revoke()
}

// view is what one configuration view says about this node. next derives
// it, install publishes it whole, and nothing modifies it after.
type view struct {
	dir     *shard.Directory
	self    string
	group   shard.Group // zero when the view has no such group
	member  bool        // the view has this node's group
	primary bool        // ... and names this node its primary
	// Write-ack barriers (§14): no ack leaves before barrier, nor an ack of
	// a commit of obj before objBarriers[obj].
	barrier     time.Time
	objBarriers map[uint64]time.Time
}

// deposed reports that the view names another node primary of this node's
// group: a commit that finds it must not be acknowledged.
func (v *view) deposed() bool { return v.member && !v.primary }

// fanout is the replication fan-out the view gives this node: its backups
// while primary, nobody otherwise.
func (v *view) fanout() []string {
	if v.primary {
		return v.group.Backups
	}
	return nil
}

// ackDelay is how long a commit of obj must hold its ack at now: until
// every barrier covering it has passed (zero in the common case).
func (v *view) ackDelay(obj uint64, now time.Time) time.Duration {
	until := v.barrier
	if t := v.objBarriers[obj]; t.After(until) {
		until = t
	}
	return max(until.Sub(now), 0)
}

// next derives the value dir gives this node (self, of group) at now from
// the value prev it replaces; unexpired barriers carry over. Another epoch
// in another directory revokes any lease this node holds as a backup (the
// same directory again, edited in place, re-derives the role only). As the
// new view's primary, a change that could orphan a lease it can no longer
// invalidate — a replica left its group (eviction, failover, its own
// promotion), or an object was mapped into it while the old home's backups
// may still serve leased reads of it — stalls acks one full ttl, group-wide
// or for that object: every such lease has expired by then (backups honor
// 3/4 of the TTL, leaving margin for skew and delivery latency).
func next(prev *view, dir *shard.Directory, self string, group uint64, now time.Time, ttl time.Duration) (v *view, revoke bool) {
	v = &view{dir: dir, self: self, objBarriers: make(map[uint64]time.Time)}
	v.group, v.member = dir.Group(group)
	v.primary = v.member && v.group.Primary == self
	if prev.barrier.After(now) {
		v.barrier = prev.barrier
	}
	for obj, t := range prev.objBarriers {
		if t.After(now) {
			v.objBarriers[obj] = t
		}
	}
	old := prev.dir
	if old == nil || old == dir || old.Epoch() == dir.Epoch() {
		return v, false
	}
	if !v.primary {
		return v, true
	}
	until := now.Add(ttl)
	replicas := v.group.Replicas()
	left := func(r string) bool { return !slices.Contains(replicas, r) }
	if (!prev.primary || slices.ContainsFunc(prev.group.Replicas(), left)) && until.After(v.barrier) {
		v.barrier = until
	}
	// Overrides installed, or cleared back to a default placement here.
	for _, overrides := range []map[uint64]uint64{old.Overrides(), dir.Overrides()} {
		for obj := range overrides {
			g, err := dir.Lookup(obj)
			was, werr := old.Lookup(obj)
			if err == nil && g.ID == group && (werr != nil || was.ID != group) && until.After(v.objBarriers[obj]) {
				v.objBarriers[obj] = until
			}
		}
	}
	return v, true
}

// Directory returns the node's current view of the configuration.
func (n *Node) Directory() *shard.Directory { return n.role.load().dir }

// SetDirectory installs a configuration view, whatever its epoch; the same
// directory again (a static one, edited in place) re-derives the role.
func (n *Node) SetDirectory(d *shard.Directory) { n.role.install(d, false) }

// load returns the published value.
func (m *roleMachine) load() *view { return m.cur.Load() }

// install derives d's value — with newerOnly, only if d's epoch is past the
// installed view's, checked under the swap's lock so a stale fetch cannot put
// an older view back — then revokes broken leases, stamps the shipper's epoch
// (backups fence older ones), publishes, and only then sets the fan-out: a
// commit that shipped to a deposed primary's emptied fan-out sees it was.
// Setting the fan-out last also grants its backups their leases at the
// epoch just stamped.
func (m *roleMachine) install(d *shard.Directory, newerOnly bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.load()
	if newerOnly && d.Epoch() <= prev.dir.Epoch() {
		return
	}
	v, revoke := next(prev, d, m.self, m.group, m.now(), m.ttl)
	if revoke {
		m.leases.Revoke()
	}
	m.shipper.SetEpoch(d.Epoch())
	m.cur.Store(v)
	m.shipper.SetBackups(v.fanout())
}

// bind names this node, once its server has an address, and derives its role.
func (m *roleMachine) bind(self string) {
	m.mu.Lock()
	m.self = self
	m.mu.Unlock()
	m.install(m.load().dir, false)
}

// route is the route step's one decision per object: may this node execute
// a request on obj? Primaries execute everything; a backup executes only a
// method whose link-time facts prove it a read (method is the invoked
// method, "" for requests that always write), and only under a valid lease
// (paper §4.2.1: "read-only functions can execute at any replica"). Which
// replica the client picked says nothing about the method.
func (m *roleMachine) route(obj core.ObjectID, method string) error {
	v := m.load()
	g, err := v.dir.Lookup(uint64(obj))
	if hint, fenced := m.fencedHint(uint64(obj)); fenced {
		// Quiesced for (or moved by) a live migration; once the view maps
		// the object elsewhere, the fence has done its job.
		if err == nil && g.ID != m.group {
			m.unfence(uint64(obj))
			return notResponsibleError(g.Primary)
		}
		return notResponsibleError(hint)
	}
	if err != nil {
		if m.coordinated {
			// Without a configuration a coordinator-managed node is nobody's
			// primary: a deposed one restarting with an empty view would
			// otherwise ack writes it never replicates (zombie primary).
			return notResponsibleError("")
		}
		// No configuration, static mode: a single node executes everything.
		return nil
	}
	if g.Primary == v.self {
		if method != "" && m.readOnly(obj, method) {
			m.reads.Inc()
		}
		return nil
	}
	if slices.Contains(g.Backups, v.self) && m.readOnly(obj, method) {
		// Only under a valid lease (right epoch, unexpired); otherwise the
		// read bounces to the primary, always safe.
		if m.leases.Valid() {
			m.reads.Inc()
			m.served.Inc()
			return nil
		}
		m.bounced.Inc()
	}
	return notResponsibleError(g.Primary)
}

// readsFor is the result cache's admission (core.Options.Caches): a member
// of obj's group caches obj's results only if it is obj's read replica in
// its installed view, so the group keeps one copy of each. A node outside
// the object's group, or with no configuration, caches everything.
func (m *roleMachine) readsFor(obj core.ObjectID) bool {
	v := m.load()
	g, err := v.dir.Lookup(uint64(obj))
	if err != nil || !v.member || g.ID != m.group {
		return true
	}
	return g.ReadReplica(uint64(obj), 0) == v.self
}

// createGuard is a create's route step again, under the object's write
// admission (core.CallCtx.Guard): a move may have fenced, cut over and
// deleted the object while the create waited on that lock, and the header
// it then finds absent must not re-create the object at its old home.
func (m *roleMachine) createGuard(obj core.ObjectID) error { return m.route(obj, "") }

// fence makes route reject the object with not-responsible plus a hint at
// its (future) home, before execution takes the object's lock.
func (m *roleMachine) fence(object uint64, hint string) {
	m.fenceMu.Lock()
	m.fences[object] = hint
	m.fenceCount.Store(int32(len(m.fences)))
	m.fenceMu.Unlock()
}

// unfence lifts a fence (move abort, or self-clear once the view caught up
// with a committed cutover).
func (m *roleMachine) unfence(object uint64) {
	m.fenceMu.Lock()
	delete(m.fences, object)
	m.fenceCount.Store(int32(len(m.fences)))
	m.fenceMu.Unlock()
}

// fencedHint reports whether the object is fenced; one atomic load when no
// fence is up.
func (m *roleMachine) fencedHint(object uint64) (string, bool) {
	if m.fenceCount.Load() == 0 {
		return "", false
	}
	m.fenceMu.Lock()
	hint, ok := m.fences[object]
	m.fenceMu.Unlock()
	return hint, ok
}

// admitJoiner is the donor's cutover callback: propose the epoch-fenced
// configuration change re-adding the joiner, then confirm it took and adopt
// the view, so the shipper covers the joiner before the commit fence is
// released.
func (n *Node) admitJoiner(joiner string, expectEpoch uint64) error {
	if n.coord == nil {
		return fmt.Errorf("cluster: no coordinator to admit %s through", joiner)
	}
	return n.proposeFenced(fmt.Sprintf("admission of %s did not take effect (epoch %d)", joiner, expectEpoch),
		func(d *shard.Directory) error {
			if d.Epoch() > expectEpoch {
				// The replica we read has applied past the fence point and
				// the joiner is not in the group: the epoch fence rejected
				// the proposal (the configuration changed under the
				// session). The joiner re-syncs against the new one.
				return fmt.Errorf("cluster: admission of %s fenced out at epoch %d (expected %d)",
					joiner, d.Epoch(), expectEpoch)
			}
			return n.coord.AddBackup(n.opts.GroupID, joiner, expectEpoch)
		},
		func(*shard.Directory) bool { return slices.Contains(n.role.load().group.Backups, joiner) })
}

// proposeFenced is the node's one way to change the configuration through
// the coordinator: fetch the view and adopt it, propose an epoch-fenced
// change against it, and confirm by read-back — a fenced proposal that lost
// its race is a silent no-op, so only the directory's own answer (landed)
// proves the change took. A proposal that did not land is made again against
// a fresh view every 10ms for 5s; then the error is "cluster: " + what. An
// error from propose abandons the change for good.
func (n *Node) proposeFenced(what string, propose func(*shard.Directory) error, landed func(*shard.Directory) bool) error {
	deadline := time.Now().Add(5 * time.Second)
	proposed := false
	for {
		if d, err := n.coord.GetConfig(); err == nil {
			n.role.install(d, true)
			if landed(d) {
				return nil
			}
			if !proposed {
				if err := propose(d); err != nil {
					return err
				}
				proposed = true
				continue // read straight back
			}
		}
		proposed = false
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cutOverObject is the move's commit point: record the object's new home in
// the directory. Static mode mutates the (possibly shared) directory in
// place; coordinator mode proposes through the replicated log with the epoch
// fence, retrying with a refreshed view when a concurrent configuration
// change fences the proposal out — the quiesced state at both ends stays
// valid across retries. Moves back to the object's default hash placement
// clear the override instead of recording one, which is what keeps the
// override table from growing with every migration.
func (n *Node) cutOverObject(object, targetGroup uint64) error {
	if n.coord == nil {
		d := n.Directory()
		home, err := d.DefaultGroupID(object)
		if err != nil {
			return err
		}
		if home == targetGroup {
			d.ClearOverride(object)
		} else {
			d.SetOverride(object, targetGroup)
		}
		if n.opts.installEverywhere != nil {
			n.opts.installEverywhere()
		} else {
			n.SetDirectory(d)
		}
		return nil
	}
	return n.proposeFenced(fmt.Sprintf("cutover of %d to group %d did not take effect", object, targetGroup),
		func(d *shard.Directory) error {
			// Re-validate against the fresh view: the move is only safe
			// while this node is still the object's primary and the
			// target group still exists.
			if !n.role.load().primary {
				return fmt.Errorf("cluster: cutover of %d abandoned: no longer primary of group %d", object, n.opts.GroupID)
			}
			if _, ok := d.Group(targetGroup); !ok {
				return fmt.Errorf("cluster: cutover of %d abandoned: target group %d is gone", object, targetGroup)
			}
			home, err := d.DefaultGroupID(object)
			if err != nil {
				return err
			}
			// A proposal the coordinator could not take is made again.
			if home == targetGroup {
				_ = n.coord.ClearOverride(object, d.Epoch())
			} else {
				_ = n.coord.SetOverrideFenced(object, targetGroup, d.Epoch())
			}
			return nil
		},
		func(d *shard.Directory) bool {
			g, err := d.Lookup(object)
			return err == nil && g.ID == targetGroup
		})
}

// coordLoop adopts newer configurations, and heartbeats every coordinator
// replica on a loop of the replica's own: neither a configuration fetch nor
// another replica stuck on an unanswered call delays a heartbeat, and each
// loop has at most one in flight. Close joins the heartbeat loops only after
// its pool teardown has failed any call stuck on a replica that never
// answers.
func (n *Node) coordLoop() {
	defer close(n.done)
	interval := n.opts.HeartbeatInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	for _, replica := range n.opts.Coordinators {
		n.beats.Add(1)
		go func() {
			defer n.beats.Done()
			n.every(interval, func() { n.coord.Heartbeat(replica, n.addr, n.DebugAddr()) })
		}()
	}
	n.every(interval, func() {
		if d, err := n.coord.GetConfig(); err == nil {
			n.role.install(d, true)
		}
	})
}

// every runs f at once (the failure detector should see a booting node as
// soon as it serves) and then on every tick of interval, never once the
// node is stopping.
func (n *Node) every(interval time.Duration, f func()) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		default:
			f()
		}
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
	}
}
