package coordinator

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"lambdastore/internal/paxos"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
)

// TestServeMemberRestarts runs three members the way cmd/lambdacoord runs
// one — Serve over a FileStable, fixed address — and restarts them: one
// member alone, which must rejoin its peers with the directory it had
// applied, then the whole ensemble, whose only memory of the directory is
// the acceptor files. A restarted replica's learner starts empty; the next
// proposal through it walks the log and re-learns every decided slot.
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
	type member struct {
		*Member
		stable *paxos.FileStable
	}
	members := make(map[uint64]*member)
	open := func(id uint64) {
		t.Helper()
		stable, err := paxos.OpenFileStable(filepath.Join(dir, fmt.Sprintf("acceptor-%d.log", id)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Serve(id, peers, peers[id], stable, Options{DisableFailureDetector: true}, nil)
		if err != nil {
			t.Fatalf("serve replica %d on %s: %v", id, peers[id], err)
		}
		members[id] = &member{m, stable}
	}
	stop := func(id uint64) {
		members[id].Close()
		members[id].stable.Close()
		delete(members, id)
	}
	t.Cleanup(func() {
		for id := range members {
			stop(id)
		}
	})
	pool := rpc.NewPool(nil)
	t.Cleanup(pool.Close)
	// install proposes group g through replica via and checks that the
	// replica then holds groups 0..g.
	install := func(g, via uint64) {
		t.Helper()
		group := shard.Group{ID: g, Primary: fmt.Sprintf("s%d:7000", g)}
		if err := NewClient(pool, []string{peers[via]}).SetGroup(group); err != nil {
			t.Fatalf("install group %d through replica %d: %v", g, via, err)
		}
		d := members[via].Service.Directory()
		for id := uint64(0); id <= g; id++ {
			if got, ok := d.Group(id); !ok || got.Primary != fmt.Sprintf("s%d:7000", id) {
				t.Fatalf("replica %d after installing group %d: group %d is %+v (present %v)", via, g, id, got, ok)
			}
		}
	}

	for id := uint64(1); id <= 3; id++ {
		open(id)
	}
	install(0, 1)

	// One member goes away and comes back on its file and address.
	stop(3)
	install(1, 1)
	open(3)
	install(2, 3)

	// Everything goes away: what comes back is what the files held.
	for id := uint64(1); id <= 3; id++ {
		stop(id)
	}
	for id := uint64(1); id <= 3; id++ {
		open(id)
	}
	install(3, 2)
}
