package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/core"
)

// TestLiveMigrationUnderWrites hammers one object with concurrent writers
// while it is live-migrated between groups through the coordinator's
// epoch-fenced cutover. Every acknowledged write must survive the move
// (no lost ack), and the final state must live at exactly one group.
// Run under -race this also exercises the fence/forward/seal paths for
// data races.
func TestLiveMigrationUnderWrites(t *testing.T) {
	l := startLocal(t, coordinated([]int{2, 2}, NodeOptions{}))
	nodes, coordList := l.Nodes(), l.Coord.Addrs()

	client, err := NewClient(ClientConfig{
		Coordinators: coordList,
		MaxRetries:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}

	// Object 100 hashes to group 0 (even id, two groups).
	const obj = core.ObjectID(100)
	if err := client.CreateObject("Counter", obj); err != nil {
		t.Fatal(err)
	}
	if g, err := client.lookup(obj); err != nil || g.ID != 0 {
		t.Fatalf("object should start in group 0: group %d, %v", g.ID, err)
	}

	// Concurrent writers: each acknowledged add contributes exactly 1 to
	// the count. Stale-routing errors are retried inside the client; an
	// error surfacing here means the op never executed, so it does not
	// count toward the expected total — but in a healthy cluster (no
	// crashes in this test) we expect zero.
	const writers = 4
	var (
		acked   atomic.Int64
		failed  atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		maxSeen atomic.Int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := client.Invoke(obj, "add", [][]byte{core.I64Bytes(1)})
				if err != nil {
					failed.Add(1)
					continue
				}
				acked.Add(1)
				v := core.BytesI64(res)
				for {
					cur := maxSeen.Load()
					if v <= cur || maxSeen.CompareAndSwap(cur, v) {
						break
					}
				}
			}
		}()
	}
	// One reader verifying values never regress — a stale read after
	// cutover (serving the source's frozen copy) would go backwards.
	var readerErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := client.InvokeRead(obj, "get", nil)
			if err != nil {
				continue
			}
			v := core.BytesI64(res)
			if v < last {
				readerErr.Store(errors.New("read regressed: stale copy served after cutover"))
				return
			}
			last = v
			time.Sleep(time.Millisecond)
		}
	}()

	// Let traffic build, then migrate mid-stream.
	time.Sleep(300 * time.Millisecond)
	if err := client.Migrate(obj, 1); err != nil {
		t.Fatalf("live migration failed: %v", err)
	}
	ackedAtCutover := acked.Load()

	// Immediately after the move returns, a read must reflect at least
	// everything acknowledged before the cutover.
	res, err := client.InvokeRead(obj, "get", nil)
	if err != nil {
		t.Fatalf("read after cutover: %v", err)
	}
	if got := core.BytesI64(res); got < ackedAtCutover {
		t.Fatalf("stale read after cutover: got %d, %d writes were acked", got, ackedAtCutover)
	}

	// Keep writing at the new home for a while, then drain.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if e := readerErr.Load(); e != nil {
		t.Fatal(e)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d writes failed during migration (retries exhausted)", failed.Load())
	}

	// No lost ack: the final count equals the acknowledged adds exactly.
	final, err := client.InvokeRead(obj, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := core.BytesI64(final), acked.Load(); got != want {
		t.Fatalf("final count %d != %d acknowledged writes", got, want)
	}
	if ms := maxSeen.Load(); core.BytesI64(final) < ms {
		t.Fatalf("final count %d below a previously returned count %d", core.BytesI64(final), ms)
	}

	// The object now lives in group 1 — present on its primary AND backup
	// (the move replicates to the target's backups before cutover), gone
	// from the source replicas.
	if g, err := client.lookup(obj); err != nil || g.ID != 1 {
		t.Fatalf("directory after move: group %d, %v", g.ID, err)
	}
	for i, idx := range []int{2, 3} {
		if _, err := nodes[idx].Runtime().GetValueField(obj, "count"); err != nil {
			t.Fatalf("target replica %d missing state: %v", i, err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err0 := nodes[0].Runtime().GetValueField(obj, "count")
		_, err1 := nodes[1].Runtime().GetValueField(obj, "count")
		if errors.Is(err0, core.ErrNotFound) && errors.Is(err1, core.ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("source still holds the object: primary=%v backup=%v", err0, err1)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the object still accepts writes at its new home.
	res, err = client.Invoke(obj, "add", [][]byte{core.I64Bytes(1)})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != acked.Load()+1 {
		t.Fatalf("post-move add = %d, want %d", core.BytesI64(res), acked.Load()+1)
	}
}

// TestMigrationRoundTripClearsFence moves an object away and straight back
// with no request in between. The fence the first source raised self-clears
// only when a request for the object reaches routeCheck; if it outlived the
// object's return, the node would bounce every later request to the group it
// moved the object to — forever.
func TestMigrationRoundTripClearsFence(t *testing.T) {
	_, dir := startStatic(t, NodeOptions{}, 1, 1)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 4); err != nil { // group 0 by default
		t.Fatal(err)
	}
	if _, err := c.Invoke(4, "add", [][]byte{core.I64Bytes(42)}); err != nil {
		t.Fatal(err)
	}
	for _, dest := range []uint64{1, 0} {
		if err := c.Migrate(4, dest); err != nil {
			t.Fatalf("migrate to group %d: %v", dest, err)
		}
	}
	res, err := c.Invoke(4, "add", [][]byte{core.I64Bytes(1)})
	if err != nil {
		t.Fatalf("invoke after the round trip: %v", err)
	}
	if got := core.BytesI64(res); got != 43 {
		t.Fatalf("value after the round trip = %d, want 43", got)
	}
}
