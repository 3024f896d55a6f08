package store

import (
	"fmt"
	"testing"
)

// handEntry is one version of a key in a table built by hand.
type handEntry struct {
	key  string
	seq  uint64
	kind keyKind
	val  string
}

// installTable writes entries, in internal-key order, as one table and
// installs it at level, as a flush or compaction installs its output; the
// DB's last sequence rises to cover them. Nothing runs in the background:
// only a write rotation or CompactNow wakes that loop, so the test drives
// each compaction round itself.
func installTable(t *testing.T, db *DB, level int, entries ...handEntry) {
	t.Helper()
	db.mu.Lock()
	num := db.nextFile
	db.nextFile++
	db.mu.Unlock()
	w, err := newTableWriter(tablePath(db.dir, num), db.opts)
	if err != nil {
		t.Fatal(err)
	}
	var maxSeq uint64
	for _, e := range entries {
		w.add(makeInternalKey(nil, []byte(e.key), e.seq, e.kind), []byte(e.val))
		maxSeq = max(maxSeq, e.seq)
	}
	smallest, largest, size, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	db.lastSeq = max(db.lastSeq, maxSeq)
	edit := &versionEdit{nextFileNum: db.nextFile, lastSeq: db.lastSeq, added: []editAdd{{level: level, meta: &tableMeta{
		fileNum: num, size: size, smallest: smallest, largest: largest,
	}}}}
	db.mu.Unlock()
	if err := db.man.append(edit); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	old := db.setCurrent(edit.apply(db.current))
	db.mu.Unlock()
	db.unref(old)
}

// TestCompactionKeepsTombstoneOverDeeperValue: an L1 table of key b pulls
// in the L2 table [a, b], which holds a's tombstone; L3 still holds an
// older a. Whether L2 is the base level for the merged keys must be judged
// over [a, b], not over the L1 input's [b, b], or the tombstone is dropped
// and the old a comes back.
func TestCompactionKeepsTombstoneOverDeeperValue(t *testing.T) {
	opts := testOptions()
	opts.levelBaseBytes = 1 // L1 over budget: the one level to compact
	opts.levelMultiplier = 1 << 20
	db, _ := openTestDB(t, opts)
	installTable(t, db, 3, handEntry{"a", 1, kindSet, "old a"})
	installTable(t, db, 2, handEntry{"a", 5, kindDelete, ""}, handEntry{"b", 4, kindSet, "b0"})
	installTable(t, db, 1, handEntry{"b", 10, kindSet, "b1"})
	mustNotFound(t, db, "a")
	if err := db.compactOnce(); err != nil {
		t.Fatal(err)
	}
	if n := db.TableCount(); n[1] != 0 || n[2] != 1 || n[3] != 1 {
		t.Fatalf("tables per level = %v, want L1 merged into L2 above L3's one", n)
	}
	mustNotFound(t, db, "a")
	mustGet(t, db, "b", "b1")
}

// TestCompactionNeverSplitsAKeysVersions: a snapshot keeps both versions of
// k through every compaction, and the output target is a byte, so every
// output is cut as soon as it may be. If a cut fell between k's versions, a
// later round-robin compaction of the table ending in the newer one would
// move it a level down while the older one stays above it, and reads would
// see the older value.
func TestCompactionNeverSplitsAKeysVersions(t *testing.T) {
	opts := testOptions()
	opts.memtableBytes = 1
	opts.blockBytes = 1
	opts.levelBaseBytes = 1
	opts.levelMultiplier = 2
	db, _ := openTestDB(t, opts)
	db.mu.Lock()
	db.lastSeq = 5
	db.mu.Unlock()
	snap := db.GetSnapshot() // pins sequence 5: k@3 outlives k@9
	defer snap.Release()
	installTable(t, db, 1,
		handEntry{"a", 2, kindSet, "a"},
		handEntry{"k", 9, kindSet, "new"},
		handEntry{"k", 3, kindSet, "old"},
		handEntry{"z", 1, kindSet, "z"},
	)
	for round := 1; round <= 8; round++ {
		if err := db.compactOnce(); err != nil {
			t.Fatal(err)
		}
		stage := fmt.Sprintf("after compaction round %d (tables per level %v)", round, db.TableCount())
		for key, want := range map[string]string{"a": "a", "k": "new", "z": "z"} {
			if got, err := db.Get([]byte(key)); err != nil || string(got) != want {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q", stage, key, got, err, want)
			}
		}
	}
}
