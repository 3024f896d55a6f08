package cluster

import (
	"errors"
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
// out leases it cannot invalidate. publish is its one writer, through
// install (and boot, a new deployment's first view).
type roleMachine struct {
	group    uint64
	ttl      time.Duration
	leases   leaseHolder
	shipper  *replication.Shipper
	readOnly func(core.ObjectID, string) bool // the method's link-time facts prove it a read
	reads    *telemetry.Counter               // reads served here, as primary or backup
	served   *telemetry.Counter               // ... as a leased backup
	bounced  *telemetry.Counter
	now      func() time.Time // time.Now; same-package tests inject a clock

	mu   sync.Mutex // held by install and boot; guards self
	self string
	cur  atomic.Pointer[view]
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
	// The write-ack barrier (§14): no ack leaves before it.
	barrier time.Time
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

// ackDelay is how long a commit must hold its ack at now: until the
// barrier has passed (zero in the common case).
func (v *view) ackDelay(now time.Time) time.Duration {
	return max(v.barrier.Sub(now), 0)
}

// next derives the value dir gives this node (self, of group) at now from
// the value prev it replaces; an unexpired barrier carries over. Another
// epoch revokes any lease this node holds as a backup (a view at the
// installed epoch re-derives the role only). As the new view's primary, a
// change that could orphan a lease it can no longer invalidate — a replica
// left its group (eviction, failover, its own promotion) — stalls acks one
// full ttl: every such lease has expired by then (backups honor 3/4 of the
// TTL, leaving margin for skew and delivery latency). An object moved in
// needs no barrier: the move's freeze write reached every replica of its
// old group before the cutover (DESIGN §13).
func next(prev *view, dir *shard.Directory, self string, group uint64, now time.Time, ttl time.Duration) (v *view, revoke bool) {
	v = &view{dir: dir, self: self}
	v.group, v.member = dir.Group(group)
	v.primary = v.member && v.group.Primary == self
	if prev.barrier.After(now) {
		v.barrier = prev.barrier
	}
	old := prev.dir
	if old == nil || old.Epoch() == dir.Epoch() {
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
	return v, true
}

// Directory returns the node's current view of the configuration.
func (n *Node) Directory() *shard.Directory { return n.role.load().dir }

// SetDirectory installs a configuration view, whatever its epoch; the same
// directory again, edited in place, re-derives the role. It is the seam
// through which a deployment with no coordinator — the frozen benchmark's
// hand-booted group — and tests inject a fixed view.
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
	m.publish(next(prev, d, m.self, m.group, m.now(), m.ttl))
}

// boot is install for a new deployment's first view (StartLocal), unless a
// newer one is installed. No lease was granted before it, so none can be
// orphaned: it derives as from no view at all, and taking a group arms no
// barrier. A restarted node's view goes through install, where it does.
func (m *roleMachine) boot(d *shard.Directory) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d.Epoch() >= m.load().dir.Epoch() {
		m.publish(next(&view{}, d, m.self, m.group, m.now(), m.ttl))
	}
}

// publish is install's tail, in its order; the caller holds m.mu.
func (m *roleMachine) publish(v *view, revoke bool) {
	if revoke {
		m.leases.Revoke()
	}
	m.shipper.SetEpoch(v.dir.Epoch())
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
	if err != nil {
		// Without a configuration a node is nobody's primary: a deposed one
		// restarting with an empty view would otherwise ack writes it never
		// replicates (zombie primary).
		return notResponsibleError("")
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

// admitJoiner is the donor's cutover callback: propose the epoch-fenced
// configuration change re-adding the joiner, then confirm it took and adopt
// the view, so the shipper covers the joiner before the commit fence is
// released.
func (n *Node) admitJoiner(joiner string, expectEpoch uint64) error {
	return n.proposeFenced(fmt.Sprintf("admission of %s did not take effect (epoch %d)", joiner, expectEpoch),
		func(d *shard.Directory) (*shard.Directory, error) {
			if d.Epoch() > expectEpoch {
				// The directory moved past the fence point and the joiner
				// is not in the group: the epoch fence rejects the
				// admission (the configuration changed under the session).
				// The joiner re-syncs against the new one.
				return nil, refusal{fmt.Errorf("cluster: admission of %s fenced out at epoch %d (expected %d)",
					joiner, d.Epoch(), expectEpoch)}
			}
			return n.coord.AddBackup(n.opts.GroupID, joiner, expectEpoch)
		},
		func(*shard.Directory) bool { return slices.Contains(n.role.load().group.Backups, joiner) })
}

// proposeFenced is the node's one way to change the configuration through
// the coordinator: fetch and adopt the view (the installed one may lag a
// change, such as a group added since the last heartbeat, and propose's
// refusals are judged against it), propose an epoch-fenced change against
// it, and adopt the directory the proposal's round chose — a fenced
// proposal that lost its race is a no-op that answers with the directory it
// lost to, so only that directory (landed) shows whether the change took,
// and a change that did not land is proposed again against it, for up to
// 5s; then the error is "cluster: " + what. A refusal from propose abandons
// the change at once. Any other error came from the coordinator and leaves
// the round undecided (readBack).
func (n *Node) proposeFenced(what string, propose func(*shard.Directory) (*shard.Directory, error), landed func(*shard.Directory) bool) error {
	deadline := time.Now().Add(5 * time.Second)
	d, err := n.coord.GetConfig()
	if err != nil {
		d = n.role.load().dir // the proposal's fence corrects a stale one
	}
	n.role.install(d, true)
	for !landed(d) {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %s", what)
		}
		next, err := propose(d)
		var r refusal
		if errors.As(err, &r) {
			return r.error
		}
		if err != nil {
			var ok bool
			if next, ok = n.readBack(d.Epoch(), deadline, landed); !ok {
				return fmt.Errorf("cluster: %s: %w; no read-back showed the change", what, err)
			}
		}
		n.role.install(next, true)
		d = next
	}
	return nil
}

// readBack answers a proposal whose coordinator call failed. The failure
// says nothing about the round: it may have been chosen all the same (the
// call timed out while the round waited on an unanswering acceptor), or be
// chosen yet (a later round carries a value one acceptor took forward,
// paxos.Node.Change), and proposing again would only duel with it. So it
// reads the directory every 10ms until the directory shows the change or
// has moved past epoch, where the proposal's fence makes it a no-op; false
// once the deadline passed or the node is stopping.
func (n *Node) readBack(epoch uint64, deadline time.Time, landed func(*shard.Directory) bool) (*shard.Directory, bool) {
	for time.Now().Before(deadline) {
		select {
		case <-n.stop:
			return nil, false
		case <-time.After(10 * time.Millisecond):
		}
		if d, err := n.coord.GetConfig(); err == nil {
			n.role.install(d, true)
			if landed(d) || d.Epoch() > epoch {
				return d, true
			}
		}
	}
	return nil, false
}

// refusal marks an error of proposeFenced's propose that is the node's own
// refusal to make the change, not the coordinator's answer.
type refusal struct{ error }

// cutOverObject is the move's commit point: record the object's new home in
// the coordinator's directory. It proposes with the epoch fence, again
// against the answer when a concurrent configuration change fenced the
// proposal out — the quiesced state at both ends stays valid across
// retries. Moves back to the object's default hash placement clear the
// override instead of recording one, which is what keeps the override
// table from growing with every migration.
func (n *Node) cutOverObject(object, targetGroup uint64) error {
	return n.proposeFenced(fmt.Sprintf("cutover of %d to group %d did not take effect", object, targetGroup),
		func(d *shard.Directory) (*shard.Directory, error) {
			// Re-validate against the fresh view: the move is only safe
			// while this node is still the object's primary, its group
			// still homes the object and the target group still exists.
			if !n.role.load().primary {
				return nil, refusal{fmt.Errorf("cluster: cutover of %d abandoned: no longer primary of group %d", object, n.opts.GroupID)}
			}
			if _, ok := d.Group(targetGroup); !ok {
				return nil, refusal{fmt.Errorf("cluster: cutover of %d abandoned: target group %d is gone", object, targetGroup)}
			}
			if g, err := d.Lookup(object); err != nil || g.ID != n.opts.GroupID {
				return nil, refusal{fmt.Errorf("cluster: cutover of %d abandoned: group %d no longer homes it", object, n.opts.GroupID)}
			}
			if home, _ := d.DefaultGroupID(object); home == targetGroup { // fails only where Lookup did
				return n.coord.ClearOverride(object, d.Epoch())
			}
			return n.coord.SetOverrideFenced(object, targetGroup, d.Epoch())
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
	interval := n.opts.heartbeat
	for _, replica := range n.opts.Coordinators {
		n.beats.Add(1)
		go func() {
			defer n.beats.Done()
			n.every(interval, func() { n.coord.Heartbeat(replica, n.addr) })
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
