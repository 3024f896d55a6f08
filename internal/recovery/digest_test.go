package recovery

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"lambdastore/internal/store"
)

func openStore(t *testing.T) *store.DB {
	t.Helper()
	db, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func objKey(id uint64, suffix string) []byte {
	k := make([]byte, 9, 9+len(suffix))
	k[0] = objectKeyPrefix
	binary.BigEndian.PutUint64(k[1:], id)
	return append(k, suffix...)
}

// seedStores fills both stores with the same objects and meta records.
func seedStores(t *testing.T, dbs []*store.DB, objects int, r *rand.Rand) {
	t.Helper()
	for _, db := range dbs {
		for id := uint64(1); id <= uint64(objects); id++ {
			for f := 0; f < 3; f++ {
				k := objKey(id, fmt.Sprintf("f%d", f))
				v := []byte(fmt.Sprintf("v-%d-%d", id, f))
				if err := db.Put(k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		for m := 0; m < 4; m++ {
			if err := db.Put([]byte(fmt.Sprintf("Ttype%d", m)), []byte(fmt.Sprintf("def%d", m))); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = r
}

// diff runs one digest round's diff over two stores: the joiner's folds
// and meta digest, diffed inside the donor's scan, then ObjectDiff. It
// returns the ids to re-pull and whether the meta range diverged.
func diff(t *testing.T, joiner, donor *store.DB, buckets int) (sync map[uint64]bool, meta bool) {
	t.Helper()
	local, err := BuildDigest(joiner, buckets)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := diffDigest(donor, local.Buckets)
	if err != nil {
		t.Fatal(err)
	}
	sync = make(map[uint64]bool)
	for _, id := range ObjectDiff(local, remote.buckets, remote.ids, remote.digests) {
		sync[id] = true
	}
	return sync, local.Meta != remote.meta
}

// copyRange replaces dst's [start, end) with src's (the syncRange
// semantics, minus the RPC).
func copyRange(t *testing.T, dst, src *store.DB, start, end []byte) {
	t.Helper()
	b := store.NewBatch()
	for _, db := range []*store.DB{dst, src} {
		snap := db.GetSnapshot()
		it, err := snap.NewIterator()
		if err != nil {
			snap.Release()
			t.Fatal(err)
		}
		if len(start) == 0 {
			it.SeekToFirst()
		} else {
			it.Seek(start)
		}
		for ; it.Valid(); it.Next() {
			k := it.Key()
			if len(end) > 0 && string(k) >= string(end) {
				break
			}
			if db == dst {
				b.Delete(append([]byte(nil), k...))
			} else {
				b.Put(append([]byte(nil), k...), append([]byte(nil), it.Value()...))
			}
		}
		it.Close()
		snap.Release()
	}
	if err := dst.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestDigestIdenticalStores: same contents, any bucket count, zero diff.
func TestDigestIdenticalStores(t *testing.T) {
	donor, joiner := openStore(t), openStore(t)
	r := rand.New(rand.NewSource(7))
	seedStores(t, []*store.DB{donor, joiner}, 32, r)
	for _, buckets := range []int{1, 8, DefaultBuckets, 1024} {
		sync, meta := diff(t, joiner, donor, buckets)
		if len(sync) != 0 || meta {
			t.Fatalf("buckets=%d: identical stores diverged: sync=%v meta=%v", buckets, sync, meta)
		}
	}
}

// TestDigestDiffProperty mutates the joiner randomly and checks the
// diff, made at the donor from the joiner's folds, flags exactly the
// divergent objects — those only one side holds included — across seeds and
// bucket counts (including heavy bucket collisions), and that re-pulling
// exactly those ranges converges the stores.
func TestDigestDiffProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		buckets := []int{2, 16, DefaultBuckets}[r.Intn(3)]
		donor, joiner := openStore(t), openStore(t)
		const objects = 40
		seedStores(t, []*store.DB{donor, joiner}, objects, r)

		// Random divergence on the joiner; want tracks the objects whose
		// joiner copy differs from the donor's.
		want := make(map[uint64]bool)
		for i := 0; i < 12; i++ {
			id := uint64(r.Intn(objects) + 1)
			var err error
			switch r.Intn(5) {
			case 0: // value changed (a write the joiner missed, inverted)
				err = joiner.Put(objKey(id, "f0"), []byte(fmt.Sprintf("stale-%d", r.Int())))
			case 1: // extra key only the joiner has
				err = joiner.Put(objKey(id, "zz-extra"), []byte("ghost"))
			case 2: // key missing at the joiner
				err = joiner.Delete(objKey(id, "f1"))
			case 3: // whole object missing at the joiner (created in downtime)
				id = uint64(objects + 1 + r.Intn(16))
				err = donor.Put(objKey(id, "f0"), []byte("new"))
			case 4: // object only the joiner has (deleted in downtime)
				id = uint64(objects + 100 + r.Intn(16))
				err = joiner.Put(objKey(id, "f0"), []byte("dead"))
			}
			if err != nil {
				t.Fatal(err)
			}
			want[id] = true
		}
		// Meta divergence half the time.
		wantMeta := r.Intn(2) == 0
		if wantMeta {
			if err := donor.Put([]byte("Ttype9"), []byte("deployed-in-downtime")); err != nil {
				t.Fatal(err)
			}
		}

		sync, meta := diff(t, joiner, donor, buckets)
		if meta != wantMeta {
			t.Fatalf("seed %d buckets %d: meta diverged=%v, want %v", seed, buckets, meta, wantMeta)
		}
		for id := range want {
			if !sync[id] {
				t.Fatalf("seed %d buckets %d: divergent object %d not flagged (got %v)", seed, buckets, id, sync)
			}
		}
		// No false positives: every flagged object really diverged.
		for id := range sync {
			if !want[id] {
				t.Fatalf("seed %d buckets %d: clean object %d flagged", seed, buckets, id)
			}
		}

		// Re-pulling exactly the flagged ranges converges the stores: a
		// range the donor no longer holds comes back empty and is deleted.
		for id := range sync {
			start, end := objectRange(id)
			copyRange(t, joiner, donor, start, end)
		}
		if meta {
			copyRange(t, joiner, donor, nil, metaRangeEnd())
		}
		if sync, meta = diff(t, joiner, donor, buckets); len(sync) != 0 || meta {
			t.Fatalf("seed %d buckets %d: repair did not converge: sync=%v meta=%v", seed, buckets, sync, meta)
		}
	}
}

// TestObjectRangeBounds pins the per-object key range arithmetic,
// including the id overflow carry.
func TestObjectRangeBounds(t *testing.T) {
	for _, id := range []uint64{0, 1, 255, 256, 1<<32 - 1, 1 << 32, ^uint64(0) - 1, ^uint64(0)} {
		start, end := objectRange(id)
		key := objKey(id, "field")
		if string(key) < string(start) || string(key) >= string(end) {
			t.Fatalf("id %d: key %x outside [%x, %x)", id, key, start, end)
		}
		if id < ^uint64(0) {
			next := objKey(id+1, "")
			if string(next) < string(end) {
				t.Fatalf("id %d: next object %x inside range ending %x", id, next, end)
			}
		}
	}
}
