package shard

import (
	"testing"
	"testing/quick"
)

func testDirectory() *Directory {
	return NewDirectory([]Group{
		{ID: 0, Primary: "a:1", Backups: []string{"a:2", "a:3"}},
		{ID: 1, Primary: "b:1", Backups: []string{"b:2"}},
		{ID: 2, Primary: "c:1"},
	})
}

func TestLookupHashPlacement(t *testing.T) {
	d := testDirectory()
	for id := uint64(0); id < 30; id++ {
		g, err := d.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if g.ID != id%3 {
			t.Fatalf("object %d -> group %d", id, g.ID)
		}
	}
}

func TestLookupEmpty(t *testing.T) {
	d := NewDirectory(nil)
	if _, err := d.Lookup(1); err != ErrNoGroups {
		t.Fatalf("err = %v", err)
	}
}

func TestOverride(t *testing.T) {
	d := testDirectory()
	e0 := d.Epoch()
	d.SetOverride(7, 2) // 7 would hash to group 1
	if d.Epoch() <= e0 {
		t.Fatal("epoch not bumped")
	}
	g, err := d.Lookup(7)
	if err != nil || g.ID != 2 {
		t.Fatalf("override lookup: group %d, %v", g.ID, err)
	}
	if d.OverrideCount() != 1 {
		t.Fatalf("override count %d", d.OverrideCount())
	}
	d.ClearOverride(7)
	g, _ = d.Lookup(7)
	if g.ID != 1 {
		t.Fatalf("after clear: group %d", g.ID)
	}
}

func TestOverrideToRemovedGroupFallsBack(t *testing.T) {
	d := testDirectory()
	d.SetOverride(4, 99) // no such group
	g, err := d.Lookup(4)
	if err != nil || g.ID != 4%3 {
		t.Fatalf("stale override lookup: %d, %v", g.ID, err)
	}
}

func TestPromote(t *testing.T) {
	d := testDirectory()
	g, err := d.Promote(0, "a:2")
	if err != nil {
		t.Fatal(err)
	}
	if g.Primary != "a:2" || len(g.Backups) != 1 || g.Backups[0] != "a:3" {
		t.Fatalf("promoted group %+v", g)
	}
	if _, err := d.Promote(0, "not-a-backup"); err == nil {
		t.Fatal("promotion of a non-member succeeded")
	}
	if _, err := d.Promote(42, "a:3"); err == nil {
		t.Fatal("promotion in missing group succeeded")
	}
}

func TestSetGroupReplaceAndAdd(t *testing.T) {
	d := testDirectory()
	d.SetGroup(Group{ID: 1, Primary: "x:1", Backups: []string{"x:2"}})
	g, _ := d.Lookup(1)
	if g.Primary != "x:1" {
		t.Fatalf("replaced group primary %q", g.Primary)
	}
	d.SetGroup(Group{ID: 3, Primary: "d:1"})
	if len(d.Groups()) != 4 {
		t.Fatalf("groups = %d", len(d.Groups()))
	}
	// Placement modulus changes with the group count.
	g, _ = d.Lookup(7)
	if g.ID != 7%4 {
		t.Fatalf("object 7 -> group %d", g.ID)
	}
}

func TestSnapshotLoadRoundTrip(t *testing.T) {
	d := testDirectory()
	d.SetOverride(11, 0)
	d.SetOverride(5, 2)
	snap := d.Snapshot()
	d2, err := Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Epoch() != d.Epoch() {
		t.Fatalf("epoch %d vs %d", d2.Epoch(), d.Epoch())
	}
	if len(d2.Groups()) != 3 || d2.OverrideCount() != 2 {
		t.Fatalf("loaded %d groups, %d overrides", len(d2.Groups()), d2.OverrideCount())
	}
	for id := uint64(0); id < 20; id++ {
		g1, err1 := d.Lookup(id)
		g2, err2 := d2.Lookup(id)
		if (err1 == nil) != (err2 == nil) || g1.ID != g2.ID || g1.Primary != g2.Primary {
			t.Fatalf("lookup(%d) diverges: %+v vs %+v", id, g1, g2)
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load([]byte{0xff, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage snapshot loaded")
	}
}

func TestSnapshotQuick(t *testing.T) {
	f := func(objects []uint64, gids []uint8) bool {
		d := testDirectory()
		for i, obj := range objects {
			if i < len(gids) {
				d.SetOverride(obj, uint64(gids[i]%3))
			}
		}
		d2, err := Load(d.Snapshot())
		if err != nil {
			return false
		}
		for _, obj := range objects {
			g1, _ := d.Lookup(obj)
			g2, _ := d2.Lookup(obj)
			if g1.ID != g2.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStoredGroupsImmutable pins what lets Lookup hand out the stored group
// without copying it: groups are cloned on the way in and every mutator
// replaces the Backups slice, so a group a caller already holds never
// changes under it.
func TestStoredGroupsImmutable(t *testing.T) {
	in := []Group{{ID: 0, Primary: "a:1", Backups: []string{"a:2", "a:3"}}}
	d := NewDirectory(in)
	in[0].Backups[0] = "mutated"
	g := Group{ID: 1, Primary: "b:1", Backups: []string{"b:2"}}
	d.SetGroup(g)
	g.Backups[0] = "mutated"
	if g0, _ := d.Group(0); g0.Backups[0] != "a:2" {
		t.Fatal("NewDirectory kept the caller's Backups slice")
	}
	if g1, _ := d.Group(1); g1.Backups[0] != "b:2" {
		t.Fatal("SetGroup kept the caller's Backups slice")
	}

	held, _ := d.Lookup(0)
	d.EvictBackup(0, "a:2")
	d.AddBackup(0, "a:4")
	if _, err := d.Promote(0, "a:3"); err != nil {
		t.Fatal(err)
	}
	if held.Primary != "a:1" || len(held.Backups) != 2 || held.Backups[0] != "a:2" || held.Backups[1] != "a:3" {
		t.Fatalf("a held group changed under its holder: %+v", held)
	}
	if now, _ := d.Lookup(0); now.Primary != "a:3" || len(now.Backups) != 1 || now.Backups[0] != "a:4" {
		t.Fatalf("mutators lost an update: %+v", now)
	}
	if avg := testing.AllocsPerRun(100, func() { d.Lookup(0) }); avg != 0 {
		t.Fatalf("Lookup allocates %.0f times per call", avg)
	}
}

// TestReadReplicaOrder: the attempts of one object visit every replica once
// before wrapping, promoting a backup changes no object's order, a replica
// that leaves moves only the objects it read for, and each replica reads
// for about a third of a three-replica group's objects — without an
// allocation.
func TestReadReplicaOrder(t *testing.T) {
	g := Group{ID: 0, Primary: "127.0.0.1:7411", Backups: []string{"127.0.0.1:7412", "127.0.0.1:7413"}}
	promoted := Group{ID: 0, Primary: "127.0.0.1:7413", Backups: []string{"127.0.0.1:7411", "127.0.0.1:7412"}}
	shrunk := Group{ID: 0, Primary: "127.0.0.1:7411", Backups: []string{"127.0.0.1:7413"}}
	const objects = 3000
	owned := map[string]int{}
	for obj := uint64(0); obj < objects; obj++ {
		seen := map[string]bool{}
		for a := 0; a < 3; a++ {
			r := g.ReadReplica(obj, a)
			if seen[r] {
				t.Fatalf("object %d: attempt %d revisits %s", obj, a, r)
			}
			seen[r] = true
			if p := promoted.ReadReplica(obj, a); p != r {
				t.Fatalf("object %d attempt %d: %s before the promotion, %s after", obj, a, r, p)
			}
		}
		if g.ReadReplica(obj, 3) != g.ReadReplica(obj, 0) {
			t.Fatalf("object %d: attempt 3 does not wrap to attempt 0", obj)
		}
		owner := g.ReadReplica(obj, 0)
		owned[owner]++
		if owner != "127.0.0.1:7412" && shrunk.ReadReplica(obj, 0) != owner {
			t.Fatalf("object %d moved from %s though its replica stayed", obj, owner)
		}
		if owner == "127.0.0.1:7412" && shrunk.ReadReplica(obj, 0) != g.ReadReplica(obj, 1) {
			t.Fatalf("object %d of the replica that left did not move to its next replica", obj)
		}
	}
	for r, n := range owned {
		if n < objects/3*8/10 || n > objects/3*12/10 {
			t.Errorf("%s reads for %d of %d objects, want about a third", r, n, objects)
		}
	}
	if single := (Group{Primary: "x"}); single.ReadReplica(9, 4) != "x" {
		t.Fatal("a one-replica group reads at another replica")
	}
	if allocs := testing.AllocsPerRun(100, func() { g.ReadReplica(77, 2) }); allocs != 0 {
		t.Fatalf("ReadReplica allocates %.1f objects, want 0", allocs)
	}
}
