package retwis

import (
	"encoding/binary"
	"fmt"
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/store"
)

// The cold-timeline fixture is the benchmark's timeline_cold workload at
// the core.Runtime surface: every account's 40-post timeline sits in L1
// and the result cache holds a small fraction of the accounts, so rotating
// through the accounts makes every get_timeline execute the guest, cross
// the host-call boundary ~80 times and read the LSM ~40 times.
const (
	coldAccounts = 512
	coldPosts    = 40
	coldBodyLen  = 100
)

func coldRuntime(tb testing.TB) *core.Runtime {
	tb.Helper()
	db, err := store.Open(tb.TempDir(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	rt, err := core.NewRuntime(db, core.Options{CacheEntries: 64})
	if err != nil {
		tb.Fatal(err)
	}
	if err := rt.RegisterType(MustType()); err != nil {
		tb.Fatal(err)
	}
	// Four flushed quarters make the four L0 tables that trigger the
	// compaction CompactNow waits for.
	entry := make([]byte, 16+coldBodyLen)
	for id := core.ObjectID(1); id <= coldAccounts; id++ {
		b := store.NewBatch()
		b.Put(core.HeaderKey(id), []byte(TypeName))
		b.Put(core.VersionKey(id), core.EncodeU64(0))
		b.Put(core.ValueFieldKey(id, "name"), []byte(fmt.Sprintf("user%06d", id)))
		for i := uint64(0); i < coldPosts; i++ {
			binary.LittleEndian.PutUint64(entry, uint64(id))
			binary.LittleEndian.PutUint64(entry[8:], i)
			b.Put(core.ListEntryKey(id, "timeline", i), entry)
		}
		b.Put(core.ListLenKey(id, "timeline"), core.EncodeU64(coldPosts))
		if err := db.Write(b); err != nil {
			tb.Fatal(err)
		}
		if id%(coldAccounts/4) == 0 {
			if err := db.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := db.CompactNow(); err != nil {
		tb.Fatal(err)
	}
	if n := db.TableCount(); n[0] != 0 || n[1] == 0 {
		tb.Fatalf("fixture tables per level = %v, want all data in L1", n)
	}
	return rt
}

// coldReader returns a closure that reads the next account's full timeline.
func coldReader(tb testing.TB, rt *core.Runtime) func() {
	args := [][]byte{core.I64Bytes(coldPosts)}
	next := core.ObjectID(0)
	return func() {
		next = next%coldAccounts + 1
		res, err := rt.Invoke(next, "get_timeline", args)
		if err != nil {
			tb.Fatal(err)
		}
		if want := coldPosts * (8 + 16 + coldBodyLen); len(res) != want {
			tb.Fatalf("timeline of %s is %d bytes, want %d", next, len(res), want)
		}
	}
}

// TestColdTimelineAllocBound guards the uncached read path end to end:
// host-call boundary, LSM point reads and the one-element read set.
func TestColdTimelineAllocBound(t *testing.T) {
	rt := coldRuntime(t)
	read := coldReader(t, rt)
	// Two rotations warm the instance pool and the block cache.
	for i := 0; i < 2*coldAccounts; i++ {
		read()
	}
	before := rt.Cache().Stats()
	allocs := testing.AllocsPerRun(coldAccounts, read)
	after := rt.Cache().Stats()
	if hits := after.Hits - before.Hits; hits != 0 {
		t.Fatalf("%d result-cache hits: the fixture is not cold", hits)
	}
	const bound = 60
	if allocs > bound {
		t.Fatalf("cold get_timeline(%d) allocs per Invoke = %.1f, want <= %d", coldPosts, allocs, bound)
	}
	t.Logf("cold get_timeline(%d): %.1f allocs per Invoke", coldPosts, allocs)
}

// BenchmarkColdTimeline is the inner loop for work on the uncached read
// path: `go test ./internal/retwis -run '^$' -bench ColdTimeline`.
func BenchmarkColdTimeline(b *testing.B) {
	rt := coldRuntime(b)
	read := coldReader(b, rt)
	for i := 0; i < coldAccounts; i++ {
		read()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}
