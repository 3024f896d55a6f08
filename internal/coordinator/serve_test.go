package coordinator

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/paxos"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
)

// TestServeMemberRestarts runs three members the way cmd/lambdacoord runs
// one — Serve over a FileStable, fixed address — and restarts them: one
// member alone, which must answer coord.getconfig with the directory it had
// before the restart, before any new proposal, then the whole ensemble,
// whose only memory of the directory is the acceptor files and which must
// serve the last chosen directory at once. No replica replays anything: the
// file holds the value it learned last.
func TestServeMemberRestarts(t *testing.T) {
	dir := t.TempDir()
	peers := make(map[uint64]string)
	for id := uint64(1); id <= 3; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = ln.Addr().String()
		ln.Close()
	}
	members := make(map[uint64]*Member)
	open := func(id uint64) {
		t.Helper()
		stable, err := paxos.OpenFileStable(filepath.Join(dir, fmt.Sprintf("acceptor-%d.log", id)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Serve(id, peers, peers[id], stable, Options{HeartbeatTimeout: time.Hour}, nil)
		if err != nil {
			t.Fatalf("serve replica %d on %s: %v", id, peers[id], err)
		}
		members[id] = m
	}
	stop := func(id uint64) {
		members[id].Close()
		delete(members, id)
	}
	t.Cleanup(func() {
		for id := range members {
			stop(id)
		}
	})
	// client reaches replica id over the one pool the test keeps across
	// every restart, as a node keeps its coordinator pool.
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	client := func(id uint64) *Client {
		return NewClient(pool, []string{peers[id]})
	}
	// install proposes group g through replica via and checks that the
	// directory its round chose holds groups 0..g.
	install := func(g, via uint64) uint64 {
		t.Helper()
		group := shard.Group{ID: g, Primary: fmt.Sprintf("s%d:7000", g)}
		d, err := client(via).SetGroup(group)
		if err != nil {
			t.Fatalf("install group %d through replica %d: %v", g, via, err)
		}
		for id := uint64(0); id <= g; id++ {
			if got, ok := d.Group(id); !ok || got.Primary != fmt.Sprintf("s%d:7000", id) {
				t.Fatalf("replica %d after installing group %d: group %d is %+v (present %v)", via, g, id, got, ok)
			}
		}
		return d.Epoch()
	}
	// serves checks what replica id answers to coord.getconfig.
	serves := func(id, epoch uint64) {
		t.Helper()
		d, err := client(id).GetConfig()
		if err != nil || d.Epoch() != epoch {
			t.Fatalf("replica %d serves %v, %v; want epoch %d", id, d, err, epoch)
		}
	}

	for id := uint64(1); id <= 3; id++ {
		open(id)
	}
	before := install(0, 1)

	// One member goes away and comes back on its file and address.
	stop(3)
	install(1, 1)
	open(3)
	serves(3, before)
	last := install(2, 3)

	// Everything goes away: what comes back is what the files held. The
	// ensemble is back within a millisecond of closing the pool's lanes to
	// replica 1, before the lanes' readers need have seen the close, so the
	// replicas are asked over a new pool, as a fresh lambdactl asks them:
	// the pool kept across the restart fails such a call in about 3 runs
	// of 20 (rpc's TestPoolDropsLaneClosedByPeer, a known defect).
	for id := uint64(1); id <= 3; id++ {
		stop(id)
	}
	for id := uint64(1); id <= 3; id++ {
		open(id)
	}
	pool = rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	for id := uint64(1); id <= 3; id++ {
		serves(id, last)
	}
	install(3, 2)
}

// TestUnansweringPeerCostsOneTimeout: a peer whose messages are lost holds
// each phase of a round, and the learn after it, for one detector timeout
// rather than the pool's default 30s — and so does each sweep's pull.
func TestUnansweringPeerCostsOneTimeout(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	e, err := StartEnsemble(3, Options{HeartbeatTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	fault.Add(fault.Rule{Site: fault.Wildcard, From: e.Members[0].Addr, To: e.Members[2].Addr, Action: fault.Drop})
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	start := time.Now()
	if _, err := NewClient(pool, []string{e.Members[0].Addr}).SetGroup(shard.Group{ID: 0, Primary: "p"}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("a change past an unanswering peer took %v", took)
	}
}
