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

	"lambdastore/internal/fault"
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
	// cmdCompactOverrides folds redundant placement overrides (those
	// matching the default hash placement, or pointing at removed groups)
	// into the base placement on every replica — the decay that keeps the
	// override table bounded by the number of currently displaced objects.
	cmdCompactOverrides
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
	// HeartbeatTimeout is how long a storage node may stay silent before
	// it is declared failed (default 2s).
	HeartbeatTimeout time.Duration
	// CheckInterval is the failure-detector sweep period (default 500ms).
	CheckInterval time.Duration
	// DisableFailureDetector turns off automatic promotion (tests drive
	// promotions manually).
	DisableFailureDetector bool
}

// Service is one coordinator replica.
type Service struct {
	opts Options
	node *paxos.Node

	mu         sync.Mutex
	dir        *shard.Directory
	lastSeen   map[string]time.Time
	debugAddrs map[string]string // rpc addr -> debug HTTP addr (from heartbeats)
	applied    uint64
	promotes   map[uint64]uint64 // group -> effective (guard-matched) promotions

	// What this replica applied, published for the operator: a healthy
	// cluster shows cutovers rising while coord.directory.overrides decays
	// back toward zero as objects migrate home or compaction folds them.
	reg        *telemetry.Registry // for coord.rejoins.<group>, resolved when a group first re-admits
	migrations *telemetry.Counter  // effective override installs/clears (cutovers)
	compacted  *telemetry.Counter  // overrides folded into base placement

	stop chan struct{}
	done chan struct{}
}

// New creates a coordinator replica with Paxos identity id among peers,
// using trans for consensus traffic, and publishing what it applies in reg
// (nil for none). Call Start after registering the transport.
func New(id uint64, peers []uint64, trans paxos.Transport, opts Options, reg *telemetry.Registry) *Service {
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 2 * time.Second
	}
	if opts.CheckInterval <= 0 {
		opts.CheckInterval = 500 * time.Millisecond
	}
	s := &Service{
		opts:       opts,
		dir:        shard.NewDirectory(nil),
		lastSeen:   make(map[string]time.Time),
		debugAddrs: make(map[string]string),
		promotes:   make(map[uint64]uint64),
		reg:        reg,
		migrations: reg.Counter("coord.migrations.cutovers"),
		compacted:  reg.Counter("coord.migrations.compacted"),
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
	case cmdCompactOverrides:
		s.compacted.Add(uint64(s.dir.CompactOverrides()))
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

// Heartbeat records liveness of a storage node.
func (s *Service) Heartbeat(addr string) {
	s.mu.Lock()
	s.lastSeen[addr] = time.Now()
	s.mu.Unlock()
}

// HeartbeatWithDebug records liveness and the node's debug HTTP address,
// which the metrics aggregator scrapes.
func (s *Service) HeartbeatWithDebug(addr, debugAddr string) {
	s.mu.Lock()
	s.lastSeen[addr] = time.Now()
	if debugAddr != "" {
		s.debugAddrs[addr] = debugAddr
	}
	s.mu.Unlock()
}

// DebugAddrs returns a copy of the rpc-addr -> debug-HTTP-addr table
// learned from heartbeats.
func (s *Service) DebugAddrs() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.debugAddrs))
	for a, d := range s.debugAddrs {
		out[a] = d
	}
	return out
}

// detectLoop sweeps for dead primaries and proposes promotions. Promotion
// commands are idempotent (guarded by FailedPrimary), so replicas racing to
// propose is harmless.
func (s *Service) detectLoop() {
	defer close(s.done)
	if s.opts.DisableFailureDetector {
		<-s.stop
		return
	}
	ticker := time.NewTicker(s.opts.CheckInterval)
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
	MethodPromote   = "coord.promote"
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
		// A node with a debug HTTP endpoint appends its address for the
		// metrics aggregator; Str on an exhausted frame reads "".
		r := wire.NewReader(body)
		addr := r.Str()
		if err := r.ErrIn("coordinator: heartbeat"); err != nil {
			return nil, err
		}
		s.HeartbeatWithDebug(addr, r.Str())
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
	srv.Handle(MethodPromote, func(body []byte) ([]byte, error) {
		c, err := DecodeCommand(body)
		if err != nil {
			return nil, err
		}
		c.Kind = cmdPromote
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
		if c.Kind != cmdClearOverride && c.Kind != cmdCompactOverrides {
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

// Heartbeat reports node addr as alive to every reachable replica (each
// replica runs its own failure detector). debugAddr, if non-empty, tells the
// coordinator where the node's debug HTTP endpoint lives so the metrics
// aggregator can scrape it.
func (c *Client) Heartbeat(addr, debugAddr string) {
	if fault.Enabled() {
		// Targeted heartbeat loss: the node keeps serving but looks dead to
		// the failure detector (the gray-failure half of a partition).
		d := fault.Eval(fault.SiteCoordHeartbeat, addr)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Drop || d.Err != nil {
			return
		}
	}
	body := wire.AppendString(nil, addr)
	if debugAddr != "" {
		body = wire.AppendString(body, debugAddr)
	}
	for _, a := range c.addrs {
		c.pool.Call(a, MethodHeartbeat, body) //nolint:errcheck // best effort
	}
}

// SetGroup installs a replica group.
func (c *Client) SetGroup(g shard.Group) error {
	cmd := Command{Kind: cmdSetGroup, Group: g}
	_, err := c.call(MethodSetGroup, cmd.Encode())
	return err
}

// Promote requests a manual failover.
func (c *Client) Promote(gid uint64, failedPrimary, newPrimary string) error {
	cmd := Command{Kind: cmdPromote, GroupID: gid, FailedPrimary: failedPrimary, NewPrimary: newPrimary}
	_, err := c.call(MethodPromote, cmd.Encode())
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

// SetOverride records a migrated object's new group.
func (c *Client) SetOverride(object, group uint64) error {
	cmd := Command{Kind: cmdSetOverride, Object: object, TargetGroup: group}
	_, err := c.call(MethodMigrate, cmd.Encode())
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

// CompactOverrides proposes folding redundant overrides into the base
// placement on every replica.
func (c *Client) CompactOverrides() error {
	cmd := Command{Kind: cmdCompactOverrides}
	_, err := c.call(MethodMigrate, cmd.Encode())
	return err
}
