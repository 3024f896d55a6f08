package coordinator

import (
	"testing"
	"time"

	"lambdastore/internal/paxos"
	"lambdastore/internal/shard"
	"lambdastore/internal/telemetry"
)

// newCluster builds n coordinator replicas over an in-process transport.
func newCluster(t *testing.T, n int, opts Options) ([]*Service, *paxos.LocalTransport) {
	t.Helper()
	trans := paxos.NewLocalTransport()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	var services []*Service
	for _, id := range ids {
		svc := New(id, ids, trans, opts, telemetry.NewRegistry())
		trans.Register(svc.Node())
		svc.Start()
		t.Cleanup(svc.Close)
		services = append(services, svc)
	}
	return services, trans
}

func TestCommandRoundTrip(t *testing.T) {
	c := &Command{
		Kind:          cmdPromote,
		Group:         shard.Group{ID: 3, Primary: "p:1", Backups: []string{"b:1", "b:2"}},
		GroupID:       3,
		FailedPrimary: "p:1",
		NewPrimary:    "b:1",
		Object:        42,
		TargetGroup:   1,
		Epoch:         9,
	}
	dec, err := DecodeCommand(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != cmdPromote || dec.GroupID != 3 || dec.FailedPrimary != "p:1" ||
		dec.NewPrimary != "b:1" || dec.Object != 42 || dec.TargetGroup != 1 || dec.Epoch != 9 {
		t.Fatalf("decoded %+v", dec)
	}
	if len(dec.Group.Backups) != 2 || dec.Group.Primary != "p:1" {
		t.Fatalf("group %+v", dec.Group)
	}
	if _, err := DecodeCommand(nil); err == nil {
		t.Fatal("empty command decoded")
	}
}

func TestSetGroupReplicatesToAll(t *testing.T) {
	services, _ := newCluster(t, 3, Options{DisableFailureDetector: true})
	g := shard.Group{ID: 0, Primary: "s1:7000", Backups: []string{"s2:7000"}}
	if err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	// The proposer's directory reflects it immediately; peers learn it via
	// the proposal's learn fan-out.
	for i, svc := range services {
		d := svc.Directory()
		got, err := d.Lookup(0)
		if err != nil || got.Primary != "s1:7000" {
			t.Fatalf("replica %d directory: %+v %v", i, got, err)
		}
	}
}

func TestPromotionGuardIdempotent(t *testing.T) {
	services, _ := newCluster(t, 3, Options{DisableFailureDetector: true})
	g := shard.Group{ID: 0, Primary: "p", Backups: []string{"b1", "b2"}}
	if err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	promote := &Command{Kind: cmdPromote, GroupID: 0, FailedPrimary: "p", NewPrimary: "b1"}
	if err := services[1].ProposeCommand(promote); err != nil {
		t.Fatal(err)
	}
	// A duplicate promotion against the already-replaced primary is a
	// no-op: b2 must not usurp b1.
	dup := &Command{Kind: cmdPromote, GroupID: 0, FailedPrimary: "p", NewPrimary: "b2"}
	if err := services[2].ProposeCommand(dup); err != nil {
		t.Fatal(err)
	}
	got, err := services[0].Directory().Lookup(0)
	if err != nil || got.Primary != "b1" {
		t.Fatalf("primary = %q, %v", got.Primary, err)
	}
}

func TestOverrideCommands(t *testing.T) {
	services, _ := newCluster(t, 3, Options{DisableFailureDetector: true})
	for gid := uint64(0); gid < 2; gid++ {
		g := shard.Group{ID: gid, Primary: "p"}
		if err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
			t.Fatal(err)
		}
	}
	if err := services[0].ProposeCommand(&Command{Kind: cmdSetOverride, Object: 4, TargetGroup: 1}); err != nil {
		t.Fatal(err)
	}
	g, err := services[1].Directory().Lookup(4)
	if err != nil || g.ID != 1 {
		t.Fatalf("override lookup: %d, %v", g.ID, err)
	}
	if err := services[0].ProposeCommand(&Command{Kind: cmdClearOverride, Object: 4}); err != nil {
		t.Fatal(err)
	}
	g, _ = services[2].Directory().Lookup(4)
	if g.ID != 0 {
		t.Fatalf("after clear: %d", g.ID)
	}
}

// TestAddBackupEpochFence covers the rejoin admission command: a fence
// matching the current epoch admits the joiner; a stale fence (the
// configuration changed since the catch-up was certified) is a no-op;
// re-admitting an existing member is idempotent; a zero fence is
// unguarded.
func TestAddBackupEpochFence(t *testing.T) {
	services, _ := newCluster(t, 3, Options{DisableFailureDetector: true})
	g := shard.Group{ID: 0, Primary: "p", Backups: []string{"b1"}}
	if err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	epoch := services[0].Directory().Epoch()

	// Matching fence: the joiner becomes a backup on every replica.
	if err := services[0].ProposeCommand(&Command{Kind: cmdAddBackup, GroupID: 0, NewPrimary: "b2", Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	for i, svc := range services {
		got, err := svc.Directory().Lookup(0)
		if err != nil || len(got.Backups) != 2 || got.Backups[1] != "b2" {
			t.Fatalf("replica %d after admit: %+v %v", i, got, err)
		}
	}
	if got := services[0].reg.Counter("coord.rejoins.0").Value(); got != 1 {
		t.Fatalf("rejoins = %d, want 1", got)
	}

	// Stale fence: the epoch moved when b2 was admitted, so an admission
	// certified against the old configuration must not take effect.
	if err := services[1].ProposeCommand(&Command{Kind: cmdAddBackup, GroupID: 0, NewPrimary: "b3", Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	got, _ := services[0].Directory().Lookup(0)
	for _, b := range got.Backups {
		if b == "b3" {
			t.Fatalf("stale-fenced admission took effect: %+v", got)
		}
	}
	if got := services[0].reg.Counter("coord.rejoins.0").Value(); got != 1 {
		t.Fatalf("rejoins after fenced no-op = %d, want 1", got)
	}

	// Duplicate admission at the current epoch: idempotent no-op.
	cur := services[0].Directory().Epoch()
	if err := services[0].ProposeCommand(&Command{Kind: cmdAddBackup, GroupID: 0, NewPrimary: "b2", Epoch: cur}); err != nil {
		t.Fatal(err)
	}
	if got := services[0].reg.Counter("coord.rejoins.0").Value(); got != 1 {
		t.Fatalf("rejoins after duplicate = %d, want 1", got)
	}

	// Zero fence: unguarded, applies regardless of epoch drift.
	if err := services[2].ProposeCommand(&Command{Kind: cmdAddBackup, GroupID: 0, NewPrimary: "b3"}); err != nil {
		t.Fatal(err)
	}
	got, _ = services[1].Directory().Lookup(0)
	if len(got.Backups) != 3 || got.Backups[2] != "b3" {
		t.Fatalf("unfenced admission: %+v", got)
	}
	if got := services[2].reg.Counter("coord.rejoins.0").Value(); got != 2 {
		t.Fatalf("rejoins after unfenced = %d, want 2", got)
	}
}

func TestFailureDetectorPromotes(t *testing.T) {
	services, _ := newCluster(t, 3, Options{
		HeartbeatTimeout: 100 * time.Millisecond,
		CheckInterval:    25 * time.Millisecond,
	})
	g := shard.Group{ID: 0, Primary: "prim", Backups: []string{"back"}}
	if err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	// Both nodes heartbeat, then the primary goes silent while the backup
	// keeps beating.
	stop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				for _, svc := range services {
					svc.Heartbeat("back")
				}
			}
		}
	}()
	defer close(stop)
	for _, svc := range services {
		svc.Heartbeat("prim")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := services[0].Directory().Lookup(0)
		if err == nil && got.Primary == "back" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failure detector never promoted (primary %q)", got.Primary)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestNeverHeartbeatedNodeNotDeclaredDead(t *testing.T) {
	services, _ := newCluster(t, 1, Options{
		HeartbeatTimeout: 30 * time.Millisecond,
		CheckInterval:    10 * time.Millisecond,
	})
	g := shard.Group{ID: 0, Primary: "silent", Backups: []string{"alive"}}
	if err := services[0].ProposeCommand(&Command{Kind: cmdSetGroup, Group: g}); err != nil {
		t.Fatal(err)
	}
	services[0].Heartbeat("alive")
	time.Sleep(100 * time.Millisecond)
	// "silent" never heartbeated at all (e.g. configured before boot):
	// the detector must not kill it on zero evidence.
	got, err := services[0].Directory().Lookup(0)
	if err != nil || got.Primary != "silent" {
		t.Fatalf("primary = %q (demoted without evidence)", got.Primary)
	}
}
