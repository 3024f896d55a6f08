package chaos

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/recovery"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

// Schedule timing. Every scenario runs these values; they are sized against
// each other (heartbeat < lease < detector timeout), not tuned per run.
const (
	// maxRecoveryAttempts bounds the post-heal availability probe — the
	// third invariant — at 25ms spacing.
	maxRecoveryAttempts = 400
	// promoteTimeout bounds the wait for an expected promotion (or
	// eviction) to land on a coordinator majority.
	promoteTimeout = 10 * time.Second
	// rejoinTimeout bounds the wait for a restarted replica's anti-entropy
	// catch-up to end in re-admission.
	rejoinTimeout = 30 * time.Second
)

// Scenario is one fault class the schedule can inject against the
// current primary.
type Scenario int

const (
	// ScenarioCrashPrimary kills the primary process and later restarts
	// it on the same address and data directory (WAL recovery).
	ScenarioCrashPrimary Scenario = iota
	// ScenarioPartitionPrimary isolates the primary from every other
	// endpoint (coordinators, backups, clients) with a partition's pair of
	// rules; heartbeats stop, so a backup is promoted.
	ScenarioPartitionPrimary
	// ScenarioWALSyncFail makes every fsync on the primary's database
	// fail: commits error, no write is acknowledged, no promotion
	// happens (the node stays live).
	ScenarioWALSyncFail
	// ScenarioHeartbeatLoss is a gray failure: the primary keeps
	// serving but its liveness reports fail to send, so the coordinator
	// promotes a backup out from under it.
	ScenarioHeartbeatLoss
	// ScenarioDupDelay duplicates and delays frames to the primary —
	// at-least-once probing; the ledger may grow duplicate entries but
	// must lose nothing.
	ScenarioDupDelay
	// ScenarioRestartRejoin kills a backup, writes through its downtime,
	// restarts it and waits for anti-entropy rejoin, then kills its way
	// down to the rejoined node as sole survivor: the final promotion
	// fails over ONTO the rejoined replica, so every acknowledged write —
	// including the downtime ones it caught up on — must be served by it.
	ScenarioRestartRejoin

	numScenarios

	// ScenarioMigrateUnderChaos kills the source primary in the middle
	// of a live object migration: the move must either abort cleanly
	// (the target's janitor reclaims the partial copy) or commit cleanly
	// (the object is served by the target group), never both or neither.
	// It needs a second replica group (LocalOptions.Groups) so it is
	// NOT part of AllScenarios — default schedules and their seeds are
	// unchanged; run it explicitly via RunOptions.Scenarios.
	ScenarioMigrateUnderChaos Scenario = numScenarios
)

// AllScenarios lists every scenario in declaration order.
var AllScenarios = []Scenario{
	ScenarioCrashPrimary,
	ScenarioPartitionPrimary,
	ScenarioWALSyncFail,
	ScenarioHeartbeatLoss,
	ScenarioDupDelay,
	ScenarioRestartRejoin,
}

func (s Scenario) String() string {
	switch s {
	case ScenarioCrashPrimary:
		return "crash-primary"
	case ScenarioPartitionPrimary:
		return "partition-primary"
	case ScenarioWALSyncFail:
		return "wal-sync-fail"
	case ScenarioHeartbeatLoss:
		return "heartbeat-loss"
	case ScenarioDupDelay:
		return "dup-delay"
	case ScenarioRestartRejoin:
		return "restart-rejoin"
	case ScenarioMigrateUnderChaos:
		return "migrate-under-chaos"
	}
	return fmt.Sprintf("scenario(%d)", int(s))
}

// RunOptions parameterizes one chaos run.
type RunOptions struct {
	// Seed drives the whole schedule: scenario order, object choice and
	// the fault plane's rule streams. Same seed, same schedule.
	Seed uint64
	// Scenarios is the injection sequence. Nil means a seed-derived
	// shuffle of AllScenarios, so every run covers every fault class.
	Scenarios []Scenario
	// BurstOps is the number of appends per workload burst (default 25).
	BurstOps int
	// Objects is the ledger object count (default 4).
	Objects int
	// Log, if set, receives progress lines (t.Logf fits).
	Log func(format string, args ...any)
}

func (o *RunOptions) defaults() {
	if o.BurstOps <= 0 {
		o.BurstOps = 25
	}
	if o.Objects <= 0 {
		o.Objects = 4
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
}

// Report is the outcome of a chaos run. A nil error from Run means all
// three invariants held for this schedule.
type Report struct {
	Scenarios []Scenario
	// Acked records every write id the client saw acknowledged, per
	// object — the ground truth for the no-lost-ack invariant.
	Acked map[core.ObjectID][]uint64
	// AckedTotal and FailedOps summarize the workload.
	AckedTotal int
	FailedOps  int
	// ExpectedPromotions is how many primary failures should each have
	// produced exactly one promotion.
	ExpectedPromotions uint64
	// RecoveryAttempts[i] is how many write attempts scenario i's heal
	// needed before the cluster acknowledged again.
	RecoveryAttempts []int
}

// rng is a splitmix64 stream for schedule decisions (object choice,
// scenario shuffle) — independent of the fault plane's rule streams.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffledScenarios returns AllScenarios in a seed-dependent order.
func shuffledScenarios(r *rng) []Scenario {
	out := append([]Scenario(nil), AllScenarios...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// runner threads one chaos run's state.
type runner struct {
	c       *cluster.Local
	client  *cluster.Client
	opts    RunOptions
	rng     rng
	objects []core.ObjectID
	report  *Report
	nextID  uint64
	// probeBase carves id ranges for lease probes, far above nextID so
	// probe appends never collide with the main workload's ids.
	probeBase uint64
}

// Run executes a seeded fault schedule against the cluster and checks
// the invariants. The fault plane is reset before and after: a Run owns
// the process-global plane for its duration, so runs must not overlap.
func Run(c *cluster.Local, opts RunOptions) (*Report, error) {
	opts.defaults()
	fault.Reset()
	fault.SetSeed(opts.Seed)
	defer fault.Reset()

	r := &runner{
		c:         c,
		client:    c.Client,
		opts:      opts,
		rng:       rng{s: opts.Seed ^ 0x5851f42d4c957f2d},
		report:    &Report{Acked: make(map[core.ObjectID][]uint64)},
		nextID:    1,
		probeBase: 1 << 40,
	}
	r.report.Scenarios = opts.Scenarios
	if r.report.Scenarios == nil {
		r.report.Scenarios = shuffledScenarios(&r.rng)
	}

	if err := r.setup(); err != nil {
		return r.report, err
	}
	for i, s := range r.report.Scenarios {
		opts.Log("chaos: scenario %d/%d: %s", i+1, len(r.report.Scenarios), s)
		if err := r.runScenario(s); err != nil {
			return r.report, fmt.Errorf("chaos: scenario %s: %w", s, err)
		}
	}
	if err := r.verify(); err != nil {
		return r.report, err
	}
	if r.report.AckedTotal == 0 {
		return r.report, fmt.Errorf("chaos: workload acknowledged nothing — schedule proved nothing")
	}
	return r.report, nil
}

// setup installs the Ledger type and creates the workload objects.
// StartLocal returned a cluster ready for traffic, so neither needs a retry.
func (r *runner) setup() error {
	typ, err := LedgerType()
	if err != nil {
		return err
	}
	if err := r.client.RegisterType(typ); err != nil {
		return fmt.Errorf("chaos: register type: %w", err)
	}
	for i := 0; i < r.opts.Objects; i++ {
		id := core.ObjectID(i + 1)
		if err := r.client.CreateObject("Ledger", id); err != nil {
			return fmt.Errorf("chaos: create object %d: %w", id, err)
		}
		r.objects = append(r.objects, id)
	}
	return nil
}

// awaitEvicted waits until node i is neither primary nor backup of its
// group on the coordinator majority's view: the failure detector noticed
// its death.
func (r *runner) awaitEvicted(i int) error {
	s := r.c.Slots[i]
	return r.c.Await(promoteTimeout, fmt.Sprintf("node %d to be evicted", i), func() bool {
		g, err := r.c.Group(s.Group)
		return err == nil && !slices.Contains(g.Replicas(), s.Addr)
	})
}

// awaitRejoined waits until node i is a backup of its group again: a
// completed rejoin.
func (r *runner) awaitRejoined(i int) error {
	s := r.c.Slots[i]
	return r.c.Await(rejoinTimeout, fmt.Sprintf("node %d to rejoin as backup", i), func() bool {
		g, err := r.c.Group(s.Group)
		return err == nil && slices.Contains(g.Backups, s.Addr)
	})
}

// groupFor resolves the group currently serving an object (overrides
// included) on the coordinator majority's view.
func (r *runner) groupFor(obj core.ObjectID) (shard.Group, error) {
	d, err := r.c.View()
	if err != nil {
		return shard.Group{}, err
	}
	return d.Lookup(uint64(obj))
}

// burst appends n unique ids across the workload objects, recording
// which the cluster acknowledged. Failures are expected under active
// faults; an id whose append errored MAY still be applied (at-least-
// once), which the verifier tolerates.
func (r *runner) burst(n int) {
	for i := 0; i < n; i++ {
		obj := r.objects[r.rng.intn(len(r.objects))]
		id := r.nextID
		r.nextID++
		_, err := r.client.Invoke(obj, "append", [][]byte{core.I64Bytes(int64(id))})
		if err == nil {
			r.report.Acked[obj] = append(r.report.Acked[obj], id)
			r.report.AckedTotal++
		} else {
			r.report.FailedOps++
		}
	}
}

// runScenario performs one inject → fault burst → (await promotion) →
// heal → bounded-recovery cycle.
func (r *runner) runScenario(s Scenario) error {
	if s == ScenarioRestartRejoin {
		return r.runRestartRejoin()
	}
	if s == ScenarioMigrateUnderChaos {
		return r.runMigrateUnderChaos()
	}
	r.burst(r.opts.BurstOps)

	pi, err := r.c.Primary(0)
	if err != nil {
		return fmt.Errorf("resolve primary: %w", err)
	}
	g, err := r.c.Group(0)
	if err != nil {
		return err
	}
	addr, dataDir := r.c.Slots[pi].Addr, r.c.Slots[pi].DataDir

	expectPromote := false
	var heal func() error
	switch s {
	case ScenarioCrashPrimary:
		expectPromote = len(g.Backups) > 0
		if err := r.c.Kill(pi); err != nil {
			return err
		}
		heal = func() error { return r.c.Restart(pi) }
	case ScenarioPartitionPrimary:
		expectPromote = len(g.Backups) > 0
		fault.Partition(addr, fault.Wildcard)
		heal = func() error { fault.Heal(addr, fault.Wildcard); return nil }
	case ScenarioWALSyncFail:
		fault.Add(fault.Rule{Site: fault.SiteWALSync, To: dataDir, Action: fault.Error, Err: "injected-fsync-failure"})
		heal = func() error { fault.Remove(fault.SiteWALSync, dataDir); return nil }
	case ScenarioHeartbeatLoss:
		expectPromote = len(g.Backups) > 0
		fault.Add(fault.Rule{Site: coordinator.MethodHeartbeat, From: addr, Action: fault.Error})
		heal = func() error { fault.Remove(coordinator.MethodHeartbeat, ""); return nil }
	case ScenarioDupDelay:
		fault.Add(fault.Rule{Site: fault.Wildcard, To: addr, Action: fault.Duplicate, P: 0.4})
		fault.Add(fault.Rule{Site: fault.Wildcard, To: addr, Action: fault.Delay, Delay: 2 * time.Millisecond, P: 0.4})
		heal = func() error { fault.Remove(fault.Wildcard, addr); return nil }
	default:
		return fmt.Errorf("unknown scenario %d", int(s))
	}
	if expectPromote {
		r.report.ExpectedPromotions++
	}

	r.burst(r.opts.BurstOps)

	// An expected promotion must land on a coordinator majority BEFORE
	// healing: healing first would let heartbeats resume and the
	// detector would (correctly) never fire.
	if expectPromote {
		if err := r.awaitPromotions(r.report.ExpectedPromotions); err != nil {
			return err
		}
	}
	if err := heal(); err != nil {
		return err
	}

	// Invariant 3: bounded recovery. Fresh id per attempt — a failed
	// attempt may still have been applied, and set-inclusion only binds
	// acknowledged ids.
	attempts, err := r.awaitWrite()
	r.report.RecoveryAttempts = append(r.report.RecoveryAttempts, attempts)
	if err != nil {
		return fmt.Errorf("availability not restored after %d attempts: %w", attempts, err)
	}
	r.opts.Log("chaos: %s healed; recovered after %d write attempts", s, attempts)
	return nil
}

// startLeaseProbe hammers one object per replica of obj's group — obj, and
// new objects whose shard.ReadReplica is each other replica — with
// read-your-acks checks while the schedule reconfigures the cluster: each
// iteration appends a unique id through the primary, then reads at the
// object's read replica. A successful read missing ANY id acknowledged
// before it was issued is a stale read, which leases must make impossible
// across failover and migration-cutover epochs; a read that errors
// (bounced, node down) is fine. It returns once every replica has served a
// probe read (the schedule runs no other reads meanwhile) and fails if one
// has not within 5s. The returned stop func joins the probe and reports
// the first violation.
func (r *runner) startLeaseProbe(obj core.ObjectID) (stop func() error, err error) {
	d, err := r.c.View()
	if err != nil {
		return nil, err
	}
	g, err := d.Lookup(uint64(obj))
	if err != nil {
		return nil, err
	}
	readAt := func(id uint64) string {
		if og, _ := d.Lookup(id); og.ID == g.ID {
			return g.ReadReplica(id, 0)
		}
		return ""
	}
	objs := []core.ObjectID{obj}
	served := map[*telemetry.Counter]uint64{} // each replica's reads.served before the probe
	for _, s := range r.c.Slots {
		if s.Node == nil || !slices.Contains(g.Replicas(), s.Addr) {
			continue
		}
		c := s.Node.Metrics().Counter("reads.served")
		served[c] = c.Value()
		if readAt(uint64(obj)) != s.Addr {
			for readAt(r.probeBase) != s.Addr {
				r.probeBase++
			}
			objs = append(objs, core.ObjectID(r.probeBase))
			if err := r.client.CreateObject("Ledger", core.ObjectID(r.probeBase)); err != nil {
				return nil, fmt.Errorf("lease probe object: %w", err)
			}
		}
	}
	// A dedicated client with a short retry budget keeps the probe
	// sampling during unavailability windows instead of blocking inside
	// one call's 10s retry loop.
	pc, err := cluster.NewClient(cluster.ClientConfig{
		Coordinators: r.c.Coord.Addrs(),
		MaxRetries:   2,
		RetryBudget:  300 * time.Millisecond,
	})
	if err != nil {
		return nil, fmt.Errorf("lease probe client: %w", err)
	}
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var probeErr error
	var reads, ackedN int
	for _, o := range objs {
		base := r.probeBase
		r.probeBase += 1 << 20
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acked []uint64
			for next := base; ; next++ {
				select {
				case <-stopCh:
					mu.Lock()
					ackedN += len(acked)
					mu.Unlock()
					return
				default:
				}
				if _, err := pc.Invoke(o, "append", [][]byte{core.I64Bytes(int64(next))}); err == nil {
					acked = append(acked, next)
				}
				raw, err := pc.InvokeRead(o, "list", nil)
				if err != nil {
					continue // bounced or unavailable — not a staleness violation
				}
				err = requireAll(acked, DecodeLog(raw), fmt.Sprintf("lease probe on object %d", o))
				mu.Lock()
				reads++
				probeErr = cmp.Or(probeErr, err)
				mu.Unlock()
			}
		}()
	}
	stop = func() error {
		close(stopCh)
		wg.Wait()
		pc.Close()
		r.opts.Log("chaos: lease probe on objects %v: %d replica reads consistent with %d acked writes", objs, reads, ackedN)
		if reads == 0 {
			return fmt.Errorf("chaos: lease probe on objects %v never completed a replica read — assertion proved nothing", objs)
		}
		return probeErr
	}
	if err := r.c.Await(5*time.Second, "every replica to serve a lease probe read", func() bool {
		for c, v := range served {
			if c.Value() == v {
				return false
			}
		}
		return len(served) == len(g.Replicas())
	}); err != nil {
		stop() //nolint:errcheck // a replica that served no read is the error
		return nil, fmt.Errorf("chaos: lease probe on objects %v: %w", objs, err)
	}
	return stop, nil
}

// rejoinBurst fires `clients` concurrent writers, each appending
// `perClient` unique ids, at the workload objects while a restarted
// backup is still catching up. Every acknowledged id is owed forever: it
// joins report.Acked and the end-of-run verifier. Ids come from the probe
// range so they cannot collide with the main workload's.
func (r *runner) rejoinBurst(clients, perClient int) error {
	// A dedicated client with one quick retry: a write that fails mid-rejoin
	// is counted as failed instead of being hidden by the main client's
	// patient backoff loop.
	bc, err := cluster.NewClient(cluster.ClientConfig{
		Coordinators:   r.c.Coord.Addrs(),
		MaxRetries:     2,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
		RetryBudget:    250 * time.Millisecond,
	})
	if err != nil {
		return fmt.Errorf("rejoin burst client: %w", err)
	}
	defer bc.Close()
	base := r.probeBase
	r.probeBase += 1 << 20

	var mu sync.Mutex
	var wg sync.WaitGroup
	var acked, failed int
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := base + uint64(g*perClient+i)
				obj := r.objects[int(id)%len(r.objects)]
				_, err := bc.Invoke(obj, "append", [][]byte{core.I64Bytes(int64(id))})
				mu.Lock()
				if err == nil {
					r.report.Acked[obj] = append(r.report.Acked[obj], id)
					r.report.AckedTotal++
					acked++
				} else {
					failed++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	r.report.FailedOps += failed
	r.opts.Log("chaos: rejoin burst: %d acked, %d failed (%d clients x %d ops)",
		acked, failed, clients, perClient)
	if acked == 0 {
		return fmt.Errorf("chaos: rejoin burst acknowledged nothing")
	}
	return nil
}

// runRestartRejoin drives the anti-entropy rejoin scenario: kill a
// backup, write through its downtime, restart it and wait for digest
// catch-up to end in re-admission, then remove every other member so
// the final promotion has no choice but the rejoined replica. Writes
// acknowledged afterwards are served by a node whose only copy of the
// downtime history came through recovery streaming — the schedule's
// end-of-run verifier then proves none were lost.
func (r *runner) runRestartRejoin() error {
	// Earlier scenarios heal by restarting nodes whose rejoin may still
	// be in flight; deterministic roles need full membership first.
	if err := r.waitFullMembership(); err != nil {
		return err
	}
	r.burst(r.opts.BurstOps)

	pi, err := r.c.Primary(0)
	if err != nil {
		return fmt.Errorf("resolve primary: %w", err)
	}
	g, err := r.c.Group(0)
	if err != nil {
		return err
	}
	backups := make([]int, 0, len(g.Backups))
	for i, s := range r.c.Slots {
		if slices.Contains(g.Backups, s.Addr) {
			backups = append(backups, i)
		}
	}
	if len(backups) == 0 {
		return fmt.Errorf("no backup to restart")
	}
	bi := backups[r.rng.intn(len(backups))]

	// Kill the chosen backup and wait for its eviction: only then do
	// writes acknowledge again, and those acks are the downtime history
	// the restarted node must recover without having seen.
	if err := r.c.Kill(bi); err != nil {
		return err
	}
	if err := r.awaitEvicted(bi); err != nil {
		return err
	}
	r.burst(r.opts.BurstOps)

	r.opts.Log("chaos: restarting node %d, awaiting anti-entropy rejoin", bi)
	if err := r.c.Restart(bi); err != nil {
		return err
	}
	// A burst of concurrent writers while the rejoin is in flight: every
	// acknowledged id is owed by the eventual sole survivor.
	if err := r.rejoinBurst(16, 8); err != nil {
		return err
	}
	if err := r.awaitRejoined(bi); err != nil {
		return err
	}
	r.burst(r.opts.BurstOps)

	// Lease revocation under failover: from here through the primary
	// kill, promotion of the rejoined backup, and recovery, a concurrent
	// reader must never observe a replica read missing an acked write.
	probeStop, err := r.startLeaseProbe(r.objects[r.rng.intn(len(r.objects))])
	if err != nil {
		return err
	}

	// Strip the group down to the rejoined node: every other backup
	// first (evictions, no promotion)...
	killed := []int{}
	for _, oi := range backups {
		if oi == bi {
			continue
		}
		if err := r.c.Kill(oi); err != nil {
			return err
		}
		if err := r.awaitEvicted(oi); err != nil {
			return err
		}
		killed = append(killed, oi)
	}
	r.burst(r.opts.BurstOps)

	// ...then the primary: the only promotion candidate left is the
	// rejoined replica.
	if err := r.c.Kill(pi); err != nil {
		return err
	}
	killed = append(killed, pi)
	r.report.ExpectedPromotions++
	if err := r.awaitPromotions(r.report.ExpectedPromotions); err != nil {
		return err
	}
	if g, err = r.c.Group(0); err != nil {
		return err
	}
	if g.Primary != r.c.Slots[bi].Addr {
		return fmt.Errorf("failover went to %s, not the rejoined node %s", g.Primary, r.c.Slots[bi].Addr)
	}
	r.opts.Log("chaos: rejoined node %d promoted to primary", bi)

	// Heal: restart the dead nodes (their managers re-admit them) and
	// require bounded recovery like every other scenario.
	for _, i := range killed {
		if err := r.c.Restart(i); err != nil {
			return err
		}
	}
	attempts, err := r.awaitWrite()
	r.report.RecoveryAttempts = append(r.report.RecoveryAttempts, attempts)
	if err != nil {
		return fmt.Errorf("availability not restored after %d attempts: %w", attempts, err)
	}
	if err := probeStop(); err != nil {
		return err
	}
	for _, i := range killed {
		if err := r.awaitRejoined(i); err != nil {
			return err
		}
	}
	r.opts.Log("chaos: restart-rejoin healed; recovered after %d write attempts", attempts)
	return nil
}

// runMigrateUnderChaos live-migrates a workload object from group 0 to
// group 1 three times: twice with every relay into the target failing,
// which must abort the move — once on a write's relay, and once on the
// seal's, which leaves the target's janitor a dangling session to
// reclaim; then killing the source primary with the transfer in flight
// (calls into the target are delayed so the kill reliably lands inside
// the move). The move must resolve to exactly one owner: either the
// cutover never committed — the object stays with group 0's promoted
// backup and the target's janitor reclaims the partial copy — or it
// committed and the target group serves the object. Either way every
// acknowledged write must survive, which the end-of-run verifier checks
// against whichever group the directory settles on.
func (r *runner) runMigrateUnderChaos() error {
	g1, err := r.c.Group(1)
	if err != nil {
		return fmt.Errorf("migrate-under-chaos needs a second group (LocalOptions.Groups): %w", err)
	}
	ti, err := r.c.Primary(1)
	if err != nil {
		return err
	}
	r.burst(r.opts.BurstOps)

	// Pick a workload object currently served by group 0.
	var obj core.ObjectID
	for _, o := range r.objects {
		g, err := r.groupFor(o)
		if err != nil {
			return err
		}
		if g.ID == 0 {
			obj = o
			break
		}
	}
	if obj == 0 {
		return fmt.Errorf("no workload object served by group 0")
	}
	pi, err := r.c.Primary(0)
	if err != nil {
		return fmt.Errorf("resolve primary: %w", err)
	}

	// Phase A — two aborts after the target opened its inbound session.
	// The target's pull crawls (each fetch held 200ms at send), every relay
	// into the target fails, and so does move.end. First, one write
	// acknowledged during the pull is a relay gap: it ends the source's
	// session, the target's next fetch finds none, and the target drops its
	// partial copy at once. Then, with no write, the pull completes and the
	// seal's own empty relay fails: the target is left holding an inbound
	// session (and its copy) that its janitor must reclaim.
	src := r.c.Slots[pi].Addr
	rules := []fault.Rule{
		{Site: recovery.MethodFetch, To: src, Action: fault.Delay, Delay: 200 * time.Millisecond},
		{Site: recovery.MethodForward, To: g1.Primary, Action: fault.Error, Err: "injected-relay-failure"},
		{Site: recovery.MethodMoveEnd, To: g1.Primary, Action: fault.Error, Err: "injected-move-end-failure"},
	}
	for _, rule := range rules {
		fault.Add(rule)
	}
	target := r.c.Slots[ti].Node
	for _, gap := range []bool{true, false} {
		moveDone := make(chan error, 1)
		go func() { moveDone <- r.client.Migrate(obj, 1) }()
		opened := r.c.Await(promoteTimeout, "the target to open its inbound session", func() bool {
			return target.MoveSessions() == 1
		})
		var writeErr error
		if opened == nil && gap {
			writeErr = r.awaitWriteObject(obj)
		}
		moveErr := <-moveDone
		r.opts.Log("chaos: migrate of object %d (relay gap: %v) returned: %v", obj, gap, moveErr)
		if err := cmp.Or(opened, writeErr); err != nil {
			return err
		}
		if moveErr == nil {
			return fmt.Errorf("move of object %d committed over a failed relay", obj)
		}
		owner, err := r.groupFor(obj)
		if err != nil {
			return err
		}
		if owner.ID != 0 {
			return fmt.Errorf("aborted move left object %d on group %d", obj, owner.ID)
		}
	}
	for _, rule := range rules {
		fault.Remove(rule.Site, rule.To)
	}
	// Janitor reclaim: the dangling session (and its partial copy) must be
	// gone within the session timeout.
	if err := r.c.Await(rejoinTimeout, "the target's janitor to reclaim the dangling move session", func() bool {
		return target.MoveSessions() == 0
	}); err != nil {
		return err
	}
	reclaimed := target.Metrics().Counter("move.sessions_reclaimed").Value()
	r.opts.Log("chaos: the target's janitor reclaimed %d move session(s)", reclaimed)
	if reclaimed < 1 {
		return fmt.Errorf("the target's inbound session closed, but move.sessions_reclaimed = %d", reclaimed)
	}
	if err := r.awaitObjectAbsent(obj, 1); err != nil {
		return err
	}
	// The aborted move must have left the object fully serviceable.
	if err := r.awaitWriteObject(obj); err != nil {
		return err
	}

	// Phase B — crash the source primary with the transfer in flight.
	// The harness kill drains in-flight handlers (a graceful close), so
	// the move races node teardown; whichever way it resolves, the
	// directory must name exactly one owner.
	//
	// Lease revocation under cutover: while the move commits (or aborts
	// into a failover), a concurrent reader of the migrating object must
	// never see a replica read missing an acked write — source-group
	// leases die on the override install, target-group leases only cover
	// state shipped after the cutover.
	probeStop, err := r.startLeaseProbe(obj)
	if err != nil {
		return err
	}
	fault.Add(fault.Rule{Site: fault.Wildcard, To: g1.Primary, Action: fault.Delay, Delay: 25 * time.Millisecond})
	moveDone := make(chan error, 1)
	go func() { moveDone <- r.client.Migrate(obj, 1) }()
	time.Sleep(30 * time.Millisecond)

	r.report.ExpectedPromotions++
	if err := r.c.Kill(pi); err != nil {
		return err
	}
	moveErr := <-moveDone
	fault.Remove(fault.Wildcard, g1.Primary)
	r.opts.Log("chaos: migrate of object %d against a primary crash returned: %v", obj, moveErr)

	r.burst(r.opts.BurstOps)
	if err := r.awaitPromotions(r.report.ExpectedPromotions); err != nil {
		return err
	}
	if err := r.c.Restart(pi); err != nil {
		return err
	}
	attempts, err := r.awaitWrite()
	r.report.RecoveryAttempts = append(r.report.RecoveryAttempts, attempts)
	if err != nil {
		return fmt.Errorf("availability not restored after %d attempts: %w", attempts, err)
	}
	if err := probeStop(); err != nil {
		return err
	}

	// Exactly one owner. The losing side must shed its copy: on an abort
	// the target's janitor reclaims the partial range; on an acknowledged
	// commit the source deleted the range (and shipped the delete to its
	// backups) before the move reported success.
	owner, err := r.groupFor(obj)
	if err != nil {
		return err
	}
	r.opts.Log("chaos: object %d settled on group %d", obj, owner.ID)
	if owner.ID == 0 {
		if err := r.awaitObjectAbsent(obj, 1); err != nil {
			return err
		}
	} else if moveErr == nil {
		if err := r.awaitObjectAbsent(obj, 0); err != nil {
			return err
		}
	}
	// The migrated object itself accepts writes wherever it settled.
	if err := r.awaitWriteObject(obj); err != nil {
		return err
	}
	r.opts.Log("chaos: migrate-under-chaos settled after %d recovery attempts", attempts)
	return nil
}

// awaitObjectAbsent polls the live members of one group until none of
// them holds the object's state.
func (r *runner) awaitObjectAbsent(obj core.ObjectID, group uint64) error {
	return r.c.Await(rejoinTimeout, fmt.Sprintf("group %d, not the owner of object %d, to shed its copy", group, obj), func() bool {
		for _, s := range r.c.Slots {
			if s.Group != group || s.Node == nil {
				continue
			}
			if _, err := s.Node.Runtime().GetValueField(obj, "log"); err == nil {
				return false
			}
		}
		return true
	})
}

// awaitWriteObject retries appends against one specific object until
// one is acknowledged.
func (r *runner) awaitWriteObject(obj core.ObjectID) error {
	var lastErr error
	for attempt := 1; attempt <= maxRecoveryAttempts; attempt++ {
		id := r.nextID
		r.nextID++
		if _, lastErr = r.client.Invoke(obj, "append", [][]byte{core.I64Bytes(int64(id))}); lastErr == nil {
			r.report.Acked[obj] = append(r.report.Acked[obj], id)
			r.report.AckedTotal++
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("object %d never accepted writes again: %w", obj, lastErr)
}

// waitFullMembership blocks until every harness node is alive and a
// member of group 0 (pending heal-time rejoins have completed).
func (r *runner) waitFullMembership() error {
	members := 0
	for i, s := range r.c.Slots {
		if s.Node == nil {
			return fmt.Errorf("node %d is down at scenario start", i)
		}
		if s.Group == 0 {
			members++
		}
	}
	return r.c.Await(rejoinTimeout, "full membership of group 0", func() bool {
		g, err := r.c.Group(0)
		return err == nil && g.Primary != "" && len(g.Backups) == members-1
	})
}

// awaitPromotions waits until a majority of coordinator replicas have
// applied exactly want effective promotions for group 0, failing fast
// if any replica ever exceeds it (two primaries in one epoch).
func (r *runner) awaitPromotions(want uint64) error {
	coords := r.c.Coord.Members
	var violation error
	err := r.c.Await(promoteTimeout, fmt.Sprintf("promotion %d to reach a coordinator majority", want), func() bool {
		reached := 0
		for _, m := range coords {
			got := m.Service.PromoteCounts()[0]
			if got > want {
				violation = fmt.Errorf("coordinator applied %d promotions for group 0, want %d (single-primary violation)", got, want)
				return true
			}
			if got == want {
				reached++
			}
		}
		return reached > len(coords)/2
	})
	if violation != nil {
		return violation
	}
	if err != nil {
		detail := ""
		for i, m := range coords {
			g, _ := m.Service.Directory().Group(0)
			detail += fmt.Sprintf(" coord%d{promotes=%v group=%s+%v}", i, m.Service.PromoteCounts(), g.Primary, g.Backups)
		}
		return fmt.Errorf("%w:%s", err, detail)
	}
	return nil
}

// awaitWrite retries appends until one is acknowledged, bounding the
// attempt count.
func (r *runner) awaitWrite() (int, error) {
	var lastErr error
	for attempt := 1; attempt <= maxRecoveryAttempts; attempt++ {
		obj := r.objects[r.rng.intn(len(r.objects))]
		id := r.nextID
		r.nextID++
		if _, lastErr = r.client.Invoke(obj, "append", [][]byte{core.I64Bytes(int64(id))}); lastErr == nil {
			r.report.Acked[obj] = append(r.report.Acked[obj], id)
			r.report.AckedTotal++
			return attempt, nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return maxRecoveryAttempts, lastErr
}

// verify checks invariants 1 and 2 after the schedule completes: every
// acknowledged id is present in the surviving ledgers (read through the
// current primary AND directly from every live group replica's store),
// and every coordinator replica converges to exactly the expected
// number of promotions.
func (r *runner) verify() error {
	if err := r.awaitPromotions(r.report.ExpectedPromotions); err != nil {
		return err
	}
	// Convergence: give stragglers a moment, then insist on exactness. A
	// minority replica still lagging at the deadline is a liveness gap, not
	// a safety violation.
	var violation error
	_ = r.c.Await(promoteTimeout, "every coordinator replica to apply the promotions", func() bool {
		exact := true
		for _, m := range r.c.Coord.Members {
			if got := m.Service.PromoteCounts()[0]; got > r.report.ExpectedPromotions {
				violation = fmt.Errorf("coordinator applied %d promotions, want %d (single-primary violation)",
					got, r.report.ExpectedPromotions)
				return true
			} else if got != r.report.ExpectedPromotions {
				exact = false
			}
		}
		return exact
	})
	if violation != nil {
		return violation
	}

	for _, obj := range r.objects {
		acked := r.report.Acked[obj]
		if len(acked) == 0 {
			continue
		}
		// Resolve the object's owning group — a migration scenario may
		// have moved it off group 0.
		g, err := r.groupFor(obj)
		if err != nil {
			return err
		}
		// Through the client (routed to the current primary).
		var raw []byte
		var lastErr error
		if r.c.Await(time.Second, "a read through the primary", func() bool {
			raw, lastErr = r.client.Invoke(obj, "list", nil)
			return lastErr == nil
		}) != nil {
			return fmt.Errorf("read back object %d: %w", obj, lastErr)
		}
		if err := requireAll(acked, DecodeLog(raw), fmt.Sprintf("object %d via primary", obj)); err != nil {
			return err
		}
		// Directly from every live replica's store: strict replication
		// means an acknowledged write is on every group member.
		for _, s := range r.c.Slots {
			if s.Node == nil || !slices.Contains(g.Replicas(), s.Addr) {
				continue
			}
			// Bounded wait: on a loaded single-core box the backup's
			// apply goroutine can lag the primary's acknowledgement by a
			// scheduling quantum; the write must still land within the
			// window or it is genuinely lost.
			where := fmt.Sprintf("object %d at replica %s (group primary=%s backups=%v)", obj, s.Addr, g.Primary, g.Backups)
			var checkErr error
			if r.c.Await(time.Second, where, func() bool {
				v, err := s.Node.Runtime().GetValueField(obj, "log")
				if err != nil {
					checkErr = fmt.Errorf("object %d missing at replica %s: %w", obj, s.Addr, err)
				} else {
					checkErr = requireAll(acked, DecodeLog(v), where)
				}
				return checkErr == nil
			}) != nil {
				return checkErr
			}
		}
	}
	return nil
}

// requireAll asserts every acknowledged id appears in the ledger
// (duplicates and extra unacknowledged ids are legal).
func requireAll(acked, ledger []uint64, where string) error {
	present := make(map[uint64]bool, len(ledger))
	for _, id := range ledger {
		present[id] = true
	}
	for _, id := range acked {
		if !present[id] {
			return fmt.Errorf("chaos: %s: acknowledged write %d lost (%d acked, %d in ledger)",
				where, id, len(acked), len(ledger))
		}
	}
	return nil
}
