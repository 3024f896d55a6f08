// Package coordinator implements LambdaStore's cluster-wide coordination
// service (paper §4.2.1): a Paxos-replicated configuration state machine
// recording replica groups, object migrations, and node liveness. If a node
// fails, the coordinator reconfigures the affected shards (promoting a
// backup to primary) and participants pick up the new configuration and
// reissue requests. The coordinator is only involved during
// reconfigurations, so it is never on the invocation fast path.
package coordinator

import (
	"fmt"
	"sync"
	"time"

	"lambdastore/internal/paxos"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// Command kinds in the replicated log.
const (
	cmdSetGroup = iota + 1
	cmdPromote
	cmdSetOverride
	cmdClearOverride
	cmdNoop
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

// Command is one replicated configuration change.
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

// Service is one coordinator replica.
type Service struct {
	opts Options
	node *paxos.Node

	mu       sync.Mutex
	dir      *shard.Directory
	lastSeen map[string]time.Time
	applied  uint64
	promotes map[uint64]uint64 // group -> effective (guard-matched) promotions

	// What this replica applied, published for the operator: a healthy
	// cluster shows cutovers rising while coord.directory.overrides decays
	// back toward zero as objects migrate home.
	reg        *telemetry.Registry // for coord.rejoins.<group>, resolved when a group first re-admits
	migrations *telemetry.Counter  // effective override installs/clears (cutovers)

	stop chan struct{}
	done chan struct{}
}

// New creates a coordinator replica with Paxos identity id among peers,
// using trans for consensus traffic, and publishing what it applies in reg
// (nil for none). Call Start after registering the transport.
func New(id uint64, peers []uint64, trans paxos.Transport, opts Options, reg *telemetry.Registry) *Service {
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	s := &Service{
		opts:       opts,
		dir:        shard.NewDirectory(nil),
		lastSeen:   make(map[string]time.Time),
		promotes:   make(map[uint64]uint64),
		reg:        reg,
		migrations: reg.Counter("coord.migrations.cutovers"),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	reg.GaugeFunc("coord.directory.overrides", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.dir.OverrideCount())
	})
	s.node = paxos.NewNode(id, peers, trans, s.apply)
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

// apply is the paxos learner callback: commands mutate the directory in
// log order on every replica identically.
func (s *Service) apply(slot uint64, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied++
	if len(value) == 0 {
		return // no-op filler from catch-up
	}
	c, err := DecodeCommand(value)
	if err != nil {
		return // corrupt commands are ignored deterministically
	}
	switch c.Kind {
	case cmdSetGroup:
		s.dir.SetGroup(c.Group)
	case cmdPromote:
		groups := s.dir.Groups()
		for _, g := range groups {
			if g.ID == c.GroupID && g.Primary == c.FailedPrimary {
				if _, err := s.dir.Promote(c.GroupID, c.NewPrimary); err == nil {
					s.promotes[c.GroupID]++
				}
			}
		}
	case cmdEvictBackup:
		s.dir.EvictBackup(c.GroupID, c.FailedPrimary)
	case cmdAddBackup:
		// Epoch fence: the admission was certified against a specific
		// configuration; any reconfiguration since (failover, eviction)
		// invalidates the certification, so the command no-ops and the
		// joiner re-syncs against the new configuration.
		if c.Epoch != 0 && s.dir.Epoch() != c.Epoch {
			return
		}
		if s.dir.AddBackup(c.GroupID, c.NewPrimary) {
			// Effective backup re-admissions, per group.
			s.reg.Counter(fmt.Sprintf("coord.rejoins.%d", c.GroupID)).Inc()
		}
	case cmdSetOverride:
		// Same fence as cmdAddBackup: a live migration certifies its
		// transfer against the epoch it ran under; a reconfiguration in
		// between voids the cutover.
		if c.Epoch != 0 && s.dir.Epoch() != c.Epoch {
			return
		}
		s.dir.SetOverride(c.Object, c.TargetGroup)
		s.migrations.Inc()
	case cmdClearOverride:
		if c.Epoch != 0 && s.dir.Epoch() != c.Epoch {
			return
		}
		s.dir.ClearOverride(c.Object)
		s.migrations.Inc()
	}
}

// ProposeCommand replicates a configuration change through Paxos.
func (s *Service) ProposeCommand(c *Command) error {
	_, err := s.node.ProposeMine(c.Encode())
	return err
}

// Directory returns a snapshot copy of the current configuration.
func (s *Service) Directory() *shard.Directory {
	s.mu.Lock()
	snap := s.dir.Snapshot()
	s.mu.Unlock()
	d, err := shard.Load(snap)
	if err != nil {
		return shard.NewDirectory(nil)
	}
	return d
}

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
// client ack) regains availability without them.
func (s *Service) sweep() {
	s.mu.Lock()
	now := time.Now()
	groups := s.dir.Groups()
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
		_ = s.ProposeCommand(&proposals[i])
	}
}

// PromoteCounts returns how many effective (guard-matched) promotions this
// replica has applied per group — the chaos harness's single-primary probe:
// one failure must yield exactly one promotion on every replica.
func (s *Service) PromoteCounts() map[uint64]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]uint64, len(s.promotes))
	for g, n := range s.promotes {
		out[g] = n
	}
	return out
}

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
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.dir.Snapshot(), nil
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
	srv.Handle(MethodSetGroup, func(body []byte) ([]byte, error) {
		c, err := DecodeCommand(body)
		if err != nil {
			return nil, err
		}
		c.Kind = cmdSetGroup
		return nil, s.ProposeCommand(c)
	})
	srv.Handle(MethodAddBackup, func(body []byte) ([]byte, error) {
		c, err := DecodeCommand(body)
		if err != nil {
			return nil, err
		}
		c.Kind = cmdAddBackup
		return nil, s.ProposeCommand(c)
	})
	srv.Handle(MethodMigrate, func(body []byte) ([]byte, error) {
		c, err := DecodeCommand(body)
		if err != nil {
			return nil, err
		}
		if c.Kind != cmdClearOverride {
			c.Kind = cmdSetOverride
		}
		return nil, s.ProposeCommand(c)
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

// SetGroup installs a replica group.
func (c *Client) SetGroup(g shard.Group) error {
	cmd := Command{Kind: cmdSetGroup, Group: g}
	_, err := c.call(MethodSetGroup, cmd.Encode())
	return err
}

// AddBackup proposes re-admitting a caught-up joiner as a backup of
// group gid, fenced on expectEpoch (the epoch the catch-up was
// certified against; 0 = unfenced). The proposal landing does not mean
// it took effect — callers confirm by reading the configuration back.
func (c *Client) AddBackup(gid uint64, joiner string, expectEpoch uint64) error {
	cmd := Command{Kind: cmdAddBackup, GroupID: gid, NewPrimary: joiner, Epoch: expectEpoch}
	_, err := c.call(MethodAddBackup, cmd.Encode())
	return err
}

// SetOverrideFenced proposes a migration cutover certified against
// expectEpoch: if the directory reconfigured since the transfer ran, the
// command no-ops and the caller (which confirms by reading the
// configuration back) aborts the migration.
func (c *Client) SetOverrideFenced(object, group, expectEpoch uint64) error {
	cmd := Command{Kind: cmdSetOverride, Object: object, TargetGroup: group, Epoch: expectEpoch}
	_, err := c.call(MethodMigrate, cmd.Encode())
	return err
}

// ClearOverride proposes removing an object's override — the cutover of
// a migration back to the object's default placement, fenced the same
// way (0 = unfenced).
func (c *Client) ClearOverride(object, expectEpoch uint64) error {
	cmd := Command{Kind: cmdClearOverride, Object: object, Epoch: expectEpoch}
	_, err := c.call(MethodMigrate, cmd.Encode())
	return err
}
