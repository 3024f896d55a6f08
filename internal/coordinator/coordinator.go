// Package coordinator implements LambdaStore's cluster-wide coordination
// service (paper §4.2.1): a Paxos-replicated configuration register
// recording replica groups and object migrations, and a failure detector
// over node liveness. If a node fails, the coordinator reconfigures the
// affected shards (promoting a backup to primary) and participants pick up
// the new configuration and reissue requests. The coordinator is only involved during
// reconfigurations, so it is never on the invocation fast path.
package coordinator

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"lambdastore/internal/paxos"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// Command kinds.
const (
	cmdSetGroup = iota + 1
	cmdPromote
	cmdSetOverride
	cmdClearOverride
	// cmdEvictBackup removes a dead backup from a group (GroupID +
	// FailedPrimary name the victim) so strict primary-backup shipping can
	// acknowledge writes again without it.
	cmdEvictBackup
	// cmdAddBackup re-admits a caught-up node (NewPrimary is the joiner's
	// address) as a backup of GroupID — the spare→member transition of the
	// anti-entropy rejoin protocol. Guarded by Epoch: if the directory
	// moved since the donor certified the joiner, the admission no-ops and
	// the joiner must re-sync against the new configuration.
	cmdAddBackup
)

// Command is one configuration change: a deterministic, epoch-fenced step
// from one directory to the next (state.apply).
type Command struct {
	Kind uint8

	// cmdSetGroup
	Group shard.Group

	// cmdPromote: promote NewPrimary in group GroupID if its primary is
	// still FailedPrimary (idempotence under duplicate proposals).
	GroupID       uint64
	FailedPrimary string
	NewPrimary    string

	// cmdSetOverride / cmdClearOverride
	Object      uint64
	TargetGroup uint64

	// Epoch fences epoch-certified commands (0 = unguarded), encoded
	// last so older frames (which never carried it) would simply read
	// absent. cmdAddBackup: the epoch the joiner's catch-up was
	// certified against. cmdSetOverride/cmdClearOverride: the epoch a
	// live migration's transfer ran under — any reconfiguration since
	// (failover in either group) invalidates the transfer, the cutover
	// no-ops, and the migration aborts instead of installing a stale
	// placement.
	Epoch uint64
}

// Encode serializes the command.
func (c *Command) Encode() []byte {
	var b []byte
	b = append(b, c.Kind)
	b = wire.AppendUvarint(b, c.Group.ID)
	b = wire.AppendString(b, c.Group.Primary)
	b = wire.AppendUvarint(b, uint64(len(c.Group.Backups)))
	for _, bk := range c.Group.Backups {
		b = wire.AppendString(b, bk)
	}
	b = wire.AppendUvarint(b, c.GroupID)
	b = wire.AppendString(b, c.FailedPrimary)
	b = wire.AppendString(b, c.NewPrimary)
	b = wire.AppendUvarint(b, c.Object)
	b = wire.AppendUvarint(b, c.TargetGroup)
	b = wire.AppendUvarint(b, c.Epoch)
	return b
}

// DecodeCommand parses a command.
func DecodeCommand(data []byte) (*Command, error) {
	r := wire.NewReader(data)
	c := &Command{Kind: r.Byte()}
	c.Group.ID, c.Group.Primary = r.Uvarint(), r.Str()
	c.Group.Backups = make([]string, r.Count(1))
	for i := range c.Group.Backups {
		c.Group.Backups[i] = r.Str()
	}
	c.GroupID, c.FailedPrimary, c.NewPrimary = r.Uvarint(), r.Str(), r.Str()
	c.Object, c.TargetGroup, c.Epoch = r.Uvarint(), r.Uvarint(), r.Uvarint()
	return c, r.ErrIn("coordinator: command")
}

// Options tunes a coordinator replica.
type Options struct {
	// HeartbeatTimeout is the failure detector's timeout D: how long a
	// storage node may stay silent before it is declared failed (default
	// 2s). The rest of a coordinated deployment's timing derives from it
	// (Cadence).
	HeartbeatTimeout time.Duration
}

// Cadence is a coordinated deployment's timing. The paper's prototype has
// one failover clock, the coordinator's failure detector, so every period
// here is derived from its timeout D rather than sized against it by hand.
type Cadence struct {
	// Heartbeat is how often a node reports liveness to every replica:
	// D/4, so a node is declared failed only after missing four.
	Heartbeat time.Duration
	// Sweep is how often the failure detector looks for silent nodes: D/4,
	// so a failure is acted on within 1.25·D.
	Sweep time.Duration
	// Lease is the read lease a primary grants its backups: D/2, capped at
	// 500ms. A partitioned backup's lease, and a deposed primary's write
	// barrier, end before the detector can have promoted a successor.
	Lease time.Duration
	// MoveSession is how long a move's target keeps a session nothing
	// touches before it reclaims the partial copy: 5·D, outlasting the
	// failover of the source group.
	MoveSession time.Duration
}

// Cadence derives the deployment's timing from the failure detector's
// timeout. At the default D of 2s it is 500ms, 500ms, 500ms and 10s: the
// timing of every node started outside a coordinated cluster.StartLocal.
func (o Options) Cadence() Cadence {
	d := o.HeartbeatTimeout
	if d <= 0 {
		d = defaultHeartbeatTimeout
	}
	return Cadence{Heartbeat: d / 4, Sweep: d / 4, Lease: min(d/2, 500*time.Millisecond), MoveSession: 5 * d}
}

// defaultHeartbeatTimeout is Options.HeartbeatTimeout's default.
const defaultHeartbeatTimeout = 2 * time.Second

// state is the replicated register's value: the directory, and per group
// how many promotions took effect — the chaos harness's single-primary
// probe, which so reads the same on every replica that learned the value.
type state struct {
	dir      *shard.Directory
	promotes map[uint64]uint64
}

func (st *state) encode() []byte {
	b := wire.AppendBytes(nil, st.dir.Snapshot())
	b = wire.AppendUvarint(b, uint64(len(st.promotes)))
	groups := make([]uint64, 0, len(st.promotes))
	for g := range st.promotes {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	for _, g := range groups {
		b = wire.AppendUvarint(wire.AppendUvarint(b, g), st.promotes[g])
	}
	return b
}

func decodeState(data []byte) (*state, error) {
	r := wire.NewReader(data)
	snap := r.Bytes()
	n := r.Count(2)
	st := &state{promotes: make(map[uint64]uint64, n)}
	for ; n > 0; n-- {
		g := r.Uvarint()
		st.promotes[g] = r.Uvarint()
	}
	if err := r.ErrIn("coordinator: state"); err != nil {
		return nil, err
	}
	var err error
	st.dir, err = shard.Load(snap)
	return st, err
}

// stateOf decodes the register's value; before the first change it holds
// nothing, which is the empty directory.
func stateOf(value []byte) (*state, error) {
	if len(value) == 0 {
		return &state{dir: shard.NewDirectory(nil), promotes: map[uint64]uint64{}}, nil
	}
	return decodeState(value)
}

// apply is the coordinator's one step: c applied to st. It reports whether
// c took effect; a command whose guard or epoch fence fails leaves st as it
// was.
func (st *state) apply(c *Command) bool {
	// Epoch fence of the epoch-certified commands: an admission or a
	// cutover was certified against a specific configuration, and any
	// reconfiguration since (failover, eviction) voids it — the joiner
	// re-syncs, the migration aborts.
	fenced := c.Epoch != 0 && st.dir.Epoch() != c.Epoch
	switch c.Kind {
	case cmdSetGroup:
		st.dir.SetGroup(c.Group)
		return true
	case cmdPromote:
		// Guarded by FailedPrimary: racing detectors propose the same
		// failover, and only the first takes effect.
		if g, ok := st.dir.Group(c.GroupID); !ok || g.Primary != c.FailedPrimary {
			return false
		}
		if _, err := st.dir.Promote(c.GroupID, c.NewPrimary); err != nil {
			return false
		}
		st.promotes[c.GroupID]++
		return true
	case cmdEvictBackup:
		return st.dir.EvictBackup(c.GroupID, c.FailedPrimary)
	case cmdAddBackup:
		return !fenced && st.dir.AddBackup(c.GroupID, c.NewPrimary)
	case cmdSetOverride:
		if !fenced {
			st.dir.SetOverride(c.Object, c.TargetGroup)
		}
		return !fenced
	case cmdClearOverride:
		if !fenced {
			st.dir.ClearOverride(c.Object)
		}
		return !fenced
	}
	return false
}

// Service is one coordinator replica.
type Service struct {
	opts Options
	node *paxos.Node

	mu       sync.Mutex
	lastSeen map[string]time.Time
	quorate  bool // the last sweep's pull reached a majority

	// What this replica's own proposals made take effect, published for
	// the operator: a healthy cluster shows cutovers rising while
	// coord.directory.overrides decays back toward zero as objects migrate
	// home.
	reg        *telemetry.Registry // for coord.rejoins.<group>, resolved when a group first re-admits
	migrations *telemetry.Counter  // effective override installs/clears (cutovers)

	stop chan struct{}
	done chan struct{}
}

// New creates a coordinator replica with Paxos identity id among peers,
// using trans for consensus traffic, and publishing what it changes in reg
// (nil for none). Call Start after registering the transport.
func New(id uint64, peers []uint64, trans paxos.Transport, opts Options, reg *telemetry.Registry) *Service {
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	s := &Service{
		opts:       opts,
		node:       paxos.NewNode(id, peers, trans),
		lastSeen:   make(map[string]time.Time),
		reg:        reg,
		migrations: reg.Counter("coord.migrations.cutovers"),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	reg.GaugeFunc("coord.directory.overrides", func() int64 {
		return int64(s.learned().dir.OverrideCount())
	})
	return s
}

// Node exposes the Paxos participant (for transport registration).
func (s *Service) Node() *paxos.Node { return s.node }

// SetTransport installs the consensus transport (used when replica
// addresses are only known after all servers are listening).
func (s *Service) SetTransport(t paxos.Transport) { s.node.SetTransport(t) }

// Start launches the failure detector.
func (s *Service) Start() {
	go s.detectLoop()
}

// Close stops background work.
func (s *Service) Close() {
	close(s.stop)
	<-s.done
	s.node.Close()
}

// learned is the state this replica learned last. A value that does not
// decode was never chosen (every proposal encodes its own step's result),
// so it reads as empty.
func (s *Service) learned() *state {
	st, err := stateOf(s.node.Learned().Value)
	if err != nil {
		st, _ = stateOf(nil)
	}
	return st
}

// ProposeCommand makes c one configuration change — one Paxos round over
// the whole register — and returns the directory it chose. The round runs
// even when c does not take effect (a failed guard or fence), so the
// answer is the current directory either way; only the directory shows
// whether c landed.
func (s *Service) ProposeCommand(c *Command) (*shard.Directory, error) {
	var next *state
	var effective bool
	_, err := s.node.Change(func(cur []byte) ([]byte, error) {
		st, err := stateOf(cur)
		if err != nil {
			return nil, err
		}
		next, effective = st, st.apply(c)
		return st.encode(), nil
	})
	if err != nil {
		return nil, err
	}
	if effective {
		switch c.Kind {
		case cmdSetOverride, cmdClearOverride:
			s.migrations.Inc()
		case cmdAddBackup:
			// Effective backup re-admissions, per group.
			s.reg.Counter(fmt.Sprintf("coord.rejoins.%d", c.GroupID)).Inc()
		}
	}
	return next.dir, nil
}

// Directory returns a snapshot copy of the configuration this replica
// learned last.
func (s *Service) Directory() *shard.Directory { return s.learned().dir }

// Heartbeat records that the node at addr is alive.
func (s *Service) Heartbeat(addr string) {
	s.mu.Lock()
	s.lastSeen[addr] = time.Now()
	s.mu.Unlock()
}

// detectLoop sweeps for dead primaries and proposes promotions. Promotion
// commands are idempotent (guarded by FailedPrimary), so replicas racing to
// propose is harmless.
func (s *Service) detectLoop() {
	defer close(s.done)
	ticker := time.NewTicker(s.opts.Cadence().Sweep)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.sweep()
	}
}

// sweep finds groups whose primary has missed heartbeats and promotes the
// freshest live backup; it also evicts dead backups so the strict
// replication path (every write-set acknowledged by every backup before the
// client ack) regains availability without them. It first pulls its peers'
// learned values, so a replica that missed a change catches up even while
// nothing else changes.
func (s *Service) sweep() {
	quorate := s.node.Pull()
	groups := s.learned().dir.Groups()
	s.mu.Lock()
	now := time.Now()
	// A replica back from a partition heard no heartbeat through it, and
	// may have learned a primary it has not heard from since: the silence
	// was its own, so every member starts its probation again.
	if quorate && !s.quorate {
		clear(s.lastSeen)
	}
	s.quorate = quorate
	// Group members this replica has never heard from go on probation:
	// the clock starts at the first sweep that sees them configured, so a
	// node that dies before its first heartbeat is still declared dead
	// one timeout later instead of hanging its group forever.
	for _, g := range groups {
		for _, member := range g.Replicas() {
			if _, ok := s.lastSeen[member]; !ok {
				s.lastSeen[member] = now
			}
		}
	}
	dead := func(addr string) bool {
		seen, ok := s.lastSeen[addr]
		return ok && now.Sub(seen) > s.opts.HeartbeatTimeout
	}
	var proposals []Command
	for _, g := range groups {
		if dead(g.Primary) {
			for _, b := range g.Backups {
				if !dead(b) {
					proposals = append(proposals, Command{
						Kind:          cmdPromote,
						GroupID:       g.ID,
						FailedPrimary: g.Primary,
						NewPrimary:    b,
					})
					break
				}
			}
			// Dead backups of a dead primary are cleaned up after the
			// promotion lands (next sweep), keeping each step idempotent.
			continue
		}
		for _, b := range g.Backups {
			if dead(b) {
				proposals = append(proposals, Command{
					Kind:          cmdEvictBackup,
					GroupID:       g.ID,
					FailedPrimary: b,
				})
			}
		}
	}
	s.mu.Unlock()
	for i := range proposals {
		// Best effort: a lost proposal is retried next sweep.
		_, _ = s.ProposeCommand(&proposals[i])
	}
}

// PromoteCounts returns how many effective (guard-matched) promotions the
// value this replica learned last records per group — the chaos harness's
// single-primary probe: one failure must yield exactly one promotion on
// every replica.
func (s *Service) PromoteCounts() map[uint64]uint64 { return s.learned().promotes }

// LastSeen returns a copy of this replica's liveness table (how long
// ago each storage node last heartbeated) — observability for the
// debug surface and the chaos harness.
func (s *Service) LastSeen() map[string]time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	out := make(map[string]time.Duration, len(s.lastSeen))
	for addr, seen := range s.lastSeen {
		out[addr] = now.Sub(seen)
	}
	return out
}

// --- RPC surface ---

// RPC method names.
const (
	MethodGetConfig = "coord.getconfig"
	MethodHeartbeat = "coord.heartbeat"
	MethodSetGroup  = "coord.setgroup"
	MethodMigrate   = "coord.migrate"
	MethodAddBackup = "coord.addbackup"
)

// RegisterServer exposes the coordinator's client API and its Paxos roles
// on an RPC server.
func RegisterServer(srv *rpc.Server, s *Service) {
	paxos.RegisterServer(srv, s.node)
	srv.Handle(MethodGetConfig, func(body []byte) ([]byte, error) {
		return s.Directory().Snapshot(), nil
	})
	srv.Handle(MethodHeartbeat, func(body []byte) ([]byte, error) {
		r := wire.NewReader(body)
		addr := r.Str()
		if err := r.ErrIn("coordinator: heartbeat"); err != nil {
			return nil, err
		}
		s.Heartbeat(addr)
		return nil, nil
	})
	// Each mutating method answers with the directory its round chose.
	propose := func(body []byte, kind func(*Command)) ([]byte, error) {
		c, err := DecodeCommand(body)
		if err != nil {
			return nil, err
		}
		kind(c)
		d, err := s.ProposeCommand(c)
		if err != nil {
			return nil, err
		}
		return d.Snapshot(), nil
	}
	srv.Handle(MethodSetGroup, func(body []byte) ([]byte, error) {
		return propose(body, func(c *Command) { c.Kind = cmdSetGroup })
	})
	srv.Handle(MethodAddBackup, func(body []byte) ([]byte, error) {
		return propose(body, func(c *Command) { c.Kind = cmdAddBackup })
	})
	srv.Handle(MethodMigrate, func(body []byte) ([]byte, error) {
		return propose(body, func(c *Command) {
			if c.Kind != cmdClearOverride {
				c.Kind = cmdSetOverride
			}
		})
	})
}

// Client is a thin RPC client for the coordinator service.
type Client struct {
	pool  *rpc.Pool
	addrs []string
}

// NewClient builds a client that tries coordinator replicas in order.
func NewClient(pool *rpc.Pool, addrs []string) *Client {
	return &Client{pool: pool, addrs: append([]string(nil), addrs...)}
}

// call tries each replica until one answers.
func (c *Client) call(method string, body []byte) ([]byte, error) {
	var lastErr error
	for _, addr := range c.addrs {
		resp, err := c.pool.Call(addr, method, body)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("coordinator: all replicas failed: %w", lastErr)
}

// GetConfig fetches the current directory.
func (c *Client) GetConfig() (*shard.Directory, error) {
	body, err := c.call(MethodGetConfig, nil)
	if err != nil {
		return nil, err
	}
	return shard.Load(body)
}

// Heartbeat reports node addr as alive to one coordinator replica. Each
// replica runs its own failure detector, so a node heartbeats every one,
// each on a loop of its own: a replica that never answers then holds one
// call, and never the heartbeats to the others.
func (c *Client) Heartbeat(replica, addr string) {
	c.pool.Call(replica, MethodHeartbeat, wire.AppendString(nil, addr)) //nolint:errcheck // best effort
}

// propose sends a configuration change and returns the directory its round
// chose.
func (c *Client) propose(method string, cmd *Command) (*shard.Directory, error) {
	body, err := c.call(method, cmd.Encode())
	if err != nil {
		return nil, err
	}
	return shard.Load(body)
}

// SetGroup installs a replica group.
func (c *Client) SetGroup(g shard.Group) (*shard.Directory, error) {
	return c.propose(MethodSetGroup, &Command{Kind: cmdSetGroup, Group: g})
}

// AddBackup proposes re-admitting a caught-up joiner as a backup of
// group gid, fenced on expectEpoch (the epoch the catch-up was
// certified against; 0 = unfenced). The answer is the directory the
// proposal's round chose, which shows whether the admission took effect.
func (c *Client) AddBackup(gid uint64, joiner string, expectEpoch uint64) (*shard.Directory, error) {
	return c.propose(MethodAddBackup, &Command{Kind: cmdAddBackup, GroupID: gid, NewPrimary: joiner, Epoch: expectEpoch})
}

// SetOverrideFenced proposes a migration cutover certified against
// expectEpoch: if the directory reconfigured since the transfer ran, the
// command no-ops, and the directory it answers with shows the caller the
// object still at home.
func (c *Client) SetOverrideFenced(object, group, expectEpoch uint64) (*shard.Directory, error) {
	return c.propose(MethodMigrate, &Command{Kind: cmdSetOverride, Object: object, TargetGroup: group, Epoch: expectEpoch})
}

// ClearOverride proposes removing an object's override — the cutover of
// a migration back to the object's default placement, fenced the same
// way (0 = unfenced).
func (c *Client) ClearOverride(object, expectEpoch uint64) (*shard.Directory, error) {
	return c.propose(MethodMigrate, &Command{Kind: cmdClearOverride, Object: object, Epoch: expectEpoch})
}
