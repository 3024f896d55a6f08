package cluster

import (
	"testing"
	"time"

	"lambdastore/internal/core"
)

// affinityGroup boots one quiet group of three with hour-long leases and
// a result cache, registers the Counter type and creates objects 1..n,
// object i holding i. It returns the local deployment, a client and the
// running nodes by address, once every backup holds its lease.
func affinityGroup(t *testing.T, n int) (*Local, *Client, map[string]*Node) {
	t.Helper()
	l := startLocal(t, quiet([]int{3}, NodeOptions{
		leaseTTL: time.Hour,
		Runtime:  core.Options{CacheEntries: 256},
	}))
	c := l.Client
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	for obj := core.ObjectID(1); obj <= core.ObjectID(n); obj++ {
		if err := c.CreateObject("Counter", obj); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, c, obj, int64(obj))
	}
	byAddr := map[string]*Node{}
	for _, node := range l.Nodes() {
		byAddr[node.Addr()] = node
	}
	await(t, l, 3*time.Second, "every backup's lease", func() bool {
		for _, node := range l.Nodes()[1:] {
			if !node.leases.Held() {
				return false
			}
		}
		return true
	})
	return l, c, byAddr
}

// readServed is how many reads node has served, as primary or backup.
func readServed(node *Node) uint64 { return node.Metrics().Counter("reads.served").Value() }

// TestOneCachedCopyPerGroup: each client read is served at its object's
// read replica, and only that replica keeps the object's cached results —
// so after every replica has run every object's read, the group's caches
// hold one entry per object between them. After a view change promotes a
// backup, the caching follows the new view's read replicas.
func TestOneCachedCopyPerGroup(t *testing.T) {
	const n = 24
	l, c, byAddr := affinityGroup(t, n)
	for obj := core.ObjectID(1); obj <= n; obj++ {
		g, _ := c.Directory().Lookup(uint64(obj))
		owner := byAddr[g.ReadReplica(uint64(obj), 0)]
		before := readServed(owner)
		res, err := c.InvokeRead(obj, "get", nil)
		if err != nil || core.BytesI64(res) != int64(obj) {
			t.Fatalf("read of %d = %v, %v", obj, res, err)
		}
		if readServed(owner) != before+1 {
			t.Fatalf("the read of %d was not served at its read replica %s", obj, owner.Addr())
		}
	}
	for _, node := range l.Nodes() {
		for obj := core.ObjectID(1); obj <= n; obj++ {
			if _, err := node.Runtime().Invoke(obj, "get", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var entries, gauged int64
	for _, node := range l.Nodes() {
		entries += int64(node.Runtime().Cache().Len())
		gauged += node.Metrics().Snapshot().Gauges["cache.entries"]
	}
	if entries != n || gauged != n {
		t.Fatalf("the group caches %d entries (cache.entries sums to %d) for %d objects, want one each", entries, gauged, n)
	}

	// Fail over: the first backup becomes primary and the old primary
	// leaves the group, in a view installed on the nodes by hand. Its
	// objects move to their next replica; every other object stays where
	// it was read.
	dir, err := l.View()
	if err != nil {
		t.Fatal(err)
	}
	old, _ := dir.Group(0)
	g, err := dir.Promote(0, old.Backups[0])
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, addr := range g.Replicas() {
		byAddr[addr].SetDirectory(dir)
	}
	for obj := core.ObjectID(1); obj <= n; obj++ {
		owner := g.ReadReplica(uint64(obj), 0)
		if was := old.ReadReplica(uint64(obj), 0); was != owner {
			moved++
			if was != old.Primary {
				t.Errorf("object %d moved from %s, which stayed in the group", obj, was)
			}
		}
		for _, addr := range g.Replicas() {
			stats := byAddr[addr].Runtime().Cache().Stats
			before := stats()
			if _, err := byAddr[addr].Runtime().Invoke(obj, "get", nil); err != nil {
				t.Fatal(err)
			}
			after := stats()
			looked := after.Hits+after.Misses != before.Hits+before.Misses
			if looked != (addr == owner) {
				t.Errorf("object %d at %s: cache consulted %v, read replica is %s", obj, addr, looked, owner)
			}
		}
	}
	if moved == 0 {
		t.Fatalf("the old primary was read replica of none of %d objects", n)
	}
}

// TestSpreadReadFailsOverInRendezvousOrder: with an object's read replica
// closed, its read fails over to the next replica in the object's order
// and succeeds there.
func TestSpreadReadFailsOverInRendezvousOrder(t *testing.T) {
	l, c, byAddr := affinityGroup(t, 1)
	obj, addr := readAtBackup(t, c.Directory())
	if obj != 1 {
		if err := c.CreateObject("Counter", obj); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, c, obj, int64(obj))
	}
	g, _ := c.Directory().Lookup(uint64(obj))
	next := byAddr[g.ReadReplica(uint64(obj), 1)]
	for i, s := range l.Slots {
		if s.Addr == addr {
			if err := l.Kill(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := readServed(next)
	res, err := c.InvokeRead(obj, "get", nil)
	if err != nil || core.BytesI64(res) != int64(obj) {
		t.Fatalf("read of %d with its read replica %s down = %v, %v", obj, addr, res, err)
	}
	if readServed(next) != before+1 {
		t.Fatalf("the read of %d was not served at the next replica in its order, %s", obj, next.Addr())
	}
}

// TestBackupReadAfterWriteReadsNoHeader: a backup binds an object's type when
// the create's frame puts its header and keeps the binding across the frames
// of later writes, so a read it serves right after a replicated write to the
// object resolves the type without reading the header.
func TestBackupReadAfterWriteReadsNoHeader(t *testing.T) {
	_, c, byAddr := affinityGroup(t, 1)
	obj, addr := readAtBackup(t, c.Directory())
	backup := byAddr[addr]
	misses := backup.Metrics().Counter("core.type_misses")
	before := misses.Value()
	if obj != 1 {
		if err := c.CreateObject("Counter", obj); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, c, obj, int64(obj))
	}
	for i := int64(1); i <= 3; i++ {
		mustAdd(t, c, obj, 1)
		served := readServed(backup)
		res, err := c.InvokeRead(obj, "get", nil)
		if err != nil || core.BytesI64(res) != int64(obj)+i {
			t.Fatalf("read %d of %d = %v, %v", i, obj, res, err)
		}
		if readServed(backup) != served+1 {
			t.Fatalf("read %d of %d was not served at its read replica, backup %s", i, obj, addr)
		}
	}
	if n := misses.Value() - before; n != 0 {
		t.Fatalf("backup %s read %d headers serving reads after writes, want 0", addr, n)
	}
}
