package chaos

import (
	"testing"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/coordinator"
	"lambdastore/internal/fault"
	"lambdastore/internal/store"
)

// deployment is the cluster every chaos schedule runs against, for
// cluster.StartLocal: a three-replica coordinator ensemble with a 300ms
// failure detector, and one group of three nodes (first node primary) with
// fsynced write-ahead logs — so a restart is a real crash recovery — and the
// rejoin manager armed, so a node that finds itself outside its group
// catches up from the primary and re-admits itself. Scenarios that need
// more (a second group, a shorter move timeout) edit the returned value.
func deployment(dataRoot string) cluster.LocalOptions {
	return cluster.LocalOptions{
		Groups:       []int{3},
		Coordinators: 3,
		Coord: coordinator.Options{
			HeartbeatTimeout: 300 * time.Millisecond,
			CheckInterval:    50 * time.Millisecond,
		},
		DataRoot: dataRoot,
		Node: cluster.NodeOptions{
			Store:             &store.Options{SyncWrites: true},
			HeartbeatInterval: 50 * time.Millisecond,
			Rejoin:            true,
			// Leases shorter than the failure-detector timeout: a deposed
			// primary's barrier (one lease TTL) always ends before the
			// coordinator can have promoted a successor, so a leased backup
			// can never serve state older than an acked write.
			LeaseTTL: 150 * time.Millisecond,
		},
		// Tight backoff pacing: the failure-detector timeouts are hundreds
		// of milliseconds, so production retry delays would only slow the
		// schedule down without exercising anything extra.
		Client: cluster.ClientConfig{
			RetryBaseDelay: 2 * time.Millisecond,
			RetryMaxDelay:  25 * time.Millisecond,
		},
	}
}

// newChaosCluster boots a 3-node group plus a 3-replica coordinator
// ensemble. The fault plane is process-global, so chaos tests must not
// run in parallel (they don't: no t.Parallel here by design).
func newChaosCluster(t *testing.T) *cluster.Local {
	return startChaosCluster(t, deployment(t.TempDir()))
}

func startChaosCluster(t *testing.T, opts cluster.LocalOptions) *cluster.Local {
	t.Helper()
	c, err := cluster.StartLocal(opts)
	if err != nil {
		t.Fatalf("chaos start: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		fault.Reset()
	})
	return c
}

// TestChaosSmoke is the fast tier-1 variant: one crash-promote-recover
// cycle with a small workload.
func TestChaosSmoke(t *testing.T) {
	c := newChaosCluster(t)
	rep, err := Run(c, RunOptions{
		Seed:      1,
		Scenarios: []Scenario{ScenarioCrashPrimary},
		BurstOps:  8,
		Objects:   2,
		Log:       t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if rep.ExpectedPromotions != 1 {
		t.Fatalf("expected 1 promotion, schedule produced %d", rep.ExpectedPromotions)
	}
	if rep.AckedTotal == 0 {
		t.Fatal("no writes acknowledged")
	}
	t.Logf("smoke: %d acked, %d failed, recovery attempts %v",
		rep.AckedTotal, rep.FailedOps, rep.RecoveryAttempts)
}

// TestChaos runs the full shuffled scenario set — primary crash, link
// partition, WAL fsync failure, gray heartbeat loss, frame dup/delay —
// for three distinct seeds. Each seed gets a fresh cluster; the seed
// fixes the scenario order, the workload's object choices and the fault
// plane's rule streams.
func TestChaos(t *testing.T) {
	for _, seed := range []uint64{1, 0x5eed2, 0xc0ffee} {
		seed := seed
		t.Run(fmt_seed(seed), func(t *testing.T) {
			c := newChaosCluster(t)
			rep, err := Run(c, RunOptions{Seed: seed, Log: t.Logf})
			if err != nil {
				t.Fatalf("chaos run (seed %#x): %v", seed, err)
			}
			t.Logf("seed %#x: scenarios %v, %d acked, %d failed, %d promotions, recovery %v",
				seed, rep.Scenarios, rep.AckedTotal, rep.FailedOps,
				rep.ExpectedPromotions, rep.RecoveryAttempts)
		})
	}
}

// TestChaosRestartRejoin drives the anti-entropy scenario on its own:
// a backup dies, writes land during its downtime, the restarted node
// catches up via range digests and is re-admitted, and the schedule
// then fails the group over ONTO it — the only place the downtime
// writes can be served from is state it recovered through streaming.
func TestChaosRestartRejoin(t *testing.T) {
	c := newChaosCluster(t)
	rep, err := Run(c, RunOptions{
		Seed:      0x8e70,
		Scenarios: []Scenario{ScenarioRestartRejoin},
		BurstOps:  15,
		Log:       t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if rep.ExpectedPromotions != 1 {
		t.Fatalf("expected 1 promotion (onto the rejoined node), schedule produced %d", rep.ExpectedPromotions)
	}
	if rep.AckedTotal == 0 {
		t.Fatal("no writes acknowledged")
	}
	// The scenario ends with every node rejoined; all three replicas
	// must hold every acknowledged write (verify checked this), and each
	// node's own state machine must settle on member (its local view can
	// lag the coordinator majority by a poll interval).
	for i, s := range c.Slots {
		var st string
		if c.Await(5*time.Second, "recovery to settle", func() bool {
			st = s.Node.RecoveryStatus().State
			return st == "member" || st == "idle"
		}) != nil {
			t.Errorf("node %d recovery state %q after schedule", i, st)
		}
	}
	t.Logf("restart-rejoin: %d acked, %d failed, recovery attempts %v",
		rep.AckedTotal, rep.FailedOps, rep.RecoveryAttempts)
}

// TestChaosMigrateUnderChaos drives a live object migration into a
// source-primary crash: the transfer is slowed so the kill lands inside
// it, and the move must either abort cleanly (object stays with the
// promoted group 0 backup, the target's janitor reclaims the partial
// copy) or commit cleanly (the target group serves it) — with every
// acknowledged write intact either way.
func TestChaosMigrateUnderChaos(t *testing.T) {
	opts := deployment(t.TempDir())
	opts.Groups = []int{3, 1}
	// Tight janitor so an aborted move's partial copy is reclaimed
	// within the test's patience.
	opts.Node.MoveSessionTimeout = 2 * time.Second
	c := startChaosCluster(t, opts)
	rep, err := Run(c, RunOptions{
		Seed:      0x317a,
		Scenarios: []Scenario{ScenarioMigrateUnderChaos},
		BurstOps:  15,
		Log:       t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if rep.ExpectedPromotions != 1 {
		t.Fatalf("expected 1 promotion, schedule produced %d", rep.ExpectedPromotions)
	}
	if rep.AckedTotal == 0 {
		t.Fatal("no writes acknowledged")
	}
	t.Logf("migrate-under-chaos: %d acked, %d failed, recovery attempts %v",
		rep.AckedTotal, rep.FailedOps, rep.RecoveryAttempts)
}

func fmt_seed(s uint64) string {
	const hex = "0123456789abcdef"
	buf := []byte("seed-0x")
	started := false
	for shift := 60; shift >= 0; shift -= 4 {
		d := (s >> uint(shift)) & 0xf
		if d == 0 && !started && shift > 0 {
			continue
		}
		started = true
		buf = append(buf, hex[d])
	}
	return string(buf)
}

// TestChaosPromotionUnderHeartbeatLoss covers coordinator promotion
// under heartbeat loss: a gray failure (heartbeats dropped, node still
// serving) followed by a full partition of the then-current primary.
// Each failure must yield exactly one promotion on a coordinator
// majority and never more than one on any replica, and every write
// acknowledged before the partition must be readable after it.
func TestChaosPromotionUnderHeartbeatLoss(t *testing.T) {
	c := newChaosCluster(t)
	rep, err := Run(c, RunOptions{
		Seed:      0x4b1d,
		Scenarios: []Scenario{ScenarioHeartbeatLoss, ScenarioPartitionPrimary},
		BurstOps:  15,
		Log:       t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if rep.ExpectedPromotions != 2 {
		t.Fatalf("expected 2 promotions, schedule produced %d", rep.ExpectedPromotions)
	}
	// Safety: no replica ever applies more promotions than failures.
	// Liveness: a majority applied exactly that many.
	exact := 0
	coords := c.Coord.Members
	for i, m := range coords {
		got := m.Service.PromoteCounts()[0]
		if got > rep.ExpectedPromotions {
			t.Errorf("coordinator %d applied %d promotions, want at most %d (single-primary violation)",
				i, got, rep.ExpectedPromotions)
		}
		if got == rep.ExpectedPromotions {
			exact++
		}
	}
	if exact <= len(coords)/2 {
		t.Errorf("only %d/%d coordinator replicas applied %d promotions",
			exact, len(coords), rep.ExpectedPromotions)
	}
}
