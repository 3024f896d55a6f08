package retwis

import (
	"encoding/binary"
	"fmt"
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// The cold-timeline fixture is the benchmark's timeline_cold workload at
// the core.Runtime surface: every account's 40-post timeline sits in L1
// and the result cache holds a small fraction of the accounts, so rotating
// through the accounts makes every get_timeline execute the guest, cross
// the host-call boundary 45 times and read the LSM 42 times (the list
// length, 40 entries and the version key), through one snapshot.
const (
	coldAccounts = 512
	coldPosts    = 40
	coldBodyLen  = 100
)

// coldRuntime returns the fixture's runtime and the registry its store and
// runtime publish to.
func coldRuntime(tb testing.TB) (*core.Runtime, *telemetry.Registry) {
	tb.Helper()
	reg := telemetry.NewRegistry()
	db, err := store.Open(tb.TempDir(), &store.Options{Metrics: reg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	rt, err := core.NewRuntime(db, core.Options{CacheEntries: 64, Metrics: reg})
	if err != nil {
		tb.Fatal(err)
	}
	if err := rt.RegisterType(MustType()); err != nil {
		tb.Fatal(err)
	}
	// The accounts' keys ascend, so each flushed quarter overlaps nothing
	// and goes straight to L1, as the benchmark's set-up does.
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
	return rt, reg
}

// coldReader returns a closure that reads the next account's full timeline
// through InvokeTo into *buf, emptied for each read, or through Invoke when
// buf is nil.
func coldReader(tb testing.TB, rt *core.Runtime, buf *[]byte) func() {
	args := [][]byte{core.I64Bytes(coldPosts)}
	next := core.ObjectID(0)
	return func() {
		next = next%coldAccounts + 1
		var res []byte
		var err error
		if buf == nil {
			res, err = rt.Invoke(next, "get_timeline", args)
		} else {
			*buf = (*buf)[:0]
			res, err = rt.InvokeTo(buf, next, "get_timeline", args, core.CallCtx{})
		}
		if err != nil {
			tb.Fatal(err)
		}
		if want := coldPosts * (8 + 16 + coldBodyLen); len(res) != want {
			tb.Fatalf("timeline of %s is %d bytes, want %d", next, len(res), want)
		}
	}
}

// TestColdTimelineAllocBound guards the uncached read path end to end:
// host-call boundary, LSM point reads and the one-element read set. Into a
// buffer the caller reuses (InvokeTo) a read allocates nothing: the guest
// stages the bytes in its pooled buffer, and the result cache copies them
// into the buffer of the entry its store evicted, reused. Through Invoke
// the one allocation is the caller's fresh copy. Run on an instance pool,
// into a buffer the caller reuses, the same guest call allocates nothing.
func TestColdTimelineAllocBound(t *testing.T) {
	var buf []byte
	for _, c := range []struct {
		name  string
		buf   *[]byte
		bound float64
	}{{"Invoke", nil, 1}, {"InvokeTo", &buf, 0}} {
		t.Run(c.name, func(t *testing.T) {
			rt, _ := coldRuntime(t)
			read := coldReader(t, rt, c.buf)
			// Two rotations warm the instance pool, the block cache and
			// every cache entry's buffer.
			for i := 0; i < 2*coldAccounts; i++ {
				read()
			}
			before := rt.Cache().Stats()
			allocs := testing.AllocsPerRun(coldAccounts, read)
			after := rt.Cache().Stats()
			if hits := after.Hits - before.Hits; hits != 0 {
				t.Fatalf("%d result-cache hits: the fixture is not cold", hits)
			}
			if after.Stores == before.Stores {
				t.Fatal("no read stored its result: the cache is not in the path")
			}
			if allocs > c.bound && !raceEnabled {
				t.Fatalf("cold get_timeline(%d) allocs per %s = %.1f, want <= %.0f", coldPosts, c.name, allocs, c.bound)
			}
			t.Logf("cold get_timeline(%d): %.1f allocs per %s", coldPosts, allocs, c.name)
		})
	}
	t.Run("InstancePool.Run", func(t *testing.T) {
		be := coldListBackend()
		pool := core.NewInstancePool(core.DefaultFuel, nil, nil)
		typ, args := MustType(), [][]byte{core.I64Bytes(coldPosts)}
		var buf []byte
		read := func() {
			res, err := pool.Run(buf[:0], be, 1, typ, "get_timeline", args)
			if err != nil {
				t.Fatal(err)
			}
			if want := coldPosts * (8 + 16 + coldBodyLen); len(res) != want {
				t.Fatalf("timeline is %d bytes, want %d", len(res), want)
			}
			buf = res
		}
		read()
		allocs := testing.AllocsPerRun(100, read)
		if allocs > 0 && !raceEnabled {
			t.Fatalf("cold get_timeline(%d) allocs per Run = %.1f, want 0", coldPosts, allocs)
		}
		t.Logf("cold get_timeline(%d): %.1f allocs per Run", coldPosts, allocs)
	})
}

// BenchmarkColdTimeline is the inner loop for work on the uncached read
// path, through InvokeTo into a reused buffer: `go test ./internal/retwis
// -run '^$' -bench ColdTimeline`.
func BenchmarkColdTimeline(b *testing.B) {
	rt, _ := coldRuntime(b)
	var buf []byte
	read := coldReader(b, rt, &buf)
	for i := 0; i < coldAccounts; i++ {
		read()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// TestColdTimelineTableSeeks pins, as a count of store.table_seeks, that
// the reads of one uncached get_timeline(40) resume in the block the last
// one landed in: its invocation's snapshot binary-searches a table's index
// at most twice (the list length, then the first entry, which sorts before
// it), where a read without a cursor searches it once per read — 42 times.
func TestColdTimelineTableSeeks(t *testing.T) {
	rt, reg := coldRuntime(t)
	read := coldReader(t, rt, nil)
	for i := 0; i < coldAccounts; i++ {
		read()
	}
	seeks := reg.Counter("store.table_seeks")
	var worst uint64
	for i := 0; i < coldAccounts; i++ {
		before := seeks.Value()
		read()
		worst = max(worst, seeks.Value()-before)
	}
	t.Logf("cold get_timeline(%d): at most %d table seeks", coldPosts, worst)
	if worst > 2 {
		t.Fatalf("cold get_timeline(%d) made %d table seeks, want <= 2", coldPosts, worst)
	}
}

// listBackend serves one timeline of fixed entries and counts the reads a
// method makes; it refuses every write and nested call.
type listBackend struct {
	entries [][]byte
	gets    int
}

func (b *listBackend) Now() int64  { return 0 }
func (b *listBackend) Rand() int64 { return 0 }
func (b *listBackend) Get(f *core.FieldDef, _ []byte, idx uint64) ([]byte, bool, error) {
	b.gets++
	if f.Kind != core.FieldList || idx >= uint64(len(b.entries)) {
		return nil, false, nil
	}
	return b.entries[idx], true, nil
}
func (b *listBackend) ListLen(*core.FieldDef) (int64, error) { return int64(len(b.entries)), nil }
func (b *listBackend) Count(*core.FieldDef) (int64, error)   { return 0, nil }
func (b *listBackend) Put(*core.FieldDef, []byte, []byte) error {
	return fmt.Errorf("listBackend: write")
}
func (b *listBackend) Del(*core.FieldDef, []byte) error      { return fmt.Errorf("listBackend: write") }
func (b *listBackend) ListPush(*core.FieldDef, []byte) error { return fmt.Errorf("listBackend: write") }
func (b *listBackend) BeginCall() error                      { return fmt.Errorf("listBackend: call") }
func (b *listBackend) Dispatch(core.ObjectID, string, [][]byte) ([]byte, error) {
	return nil, fmt.Errorf("listBackend: call")
}

// coldListBackend serves one timeline of the cold fixture's entries.
func coldListBackend() *listBackend {
	be := &listBackend{}
	for i := uint64(0); i < coldPosts; i++ {
		entry := make([]byte, 16+coldBodyLen)
		binary.LittleEndian.PutUint64(entry, 1)
		binary.LittleEndian.PutUint64(entry[8:], i)
		be.entries = append(be.entries, entry)
	}
	return be
}

// TestColdTimelineFuelBound pins what one uncached get_timeline(40) over
// the cold fixture's entries costs the guest: one list_get per entry, and
// the fuel of a fetch pass plus a copy pass whose bytes move by memcopy.
// Both are deterministic, so any change to the guest or to the host costs
// shows here first.
func TestColdTimelineFuelBound(t *testing.T) {
	be := coldListBackend()
	reg := telemetry.NewRegistry()
	pool := core.NewInstancePool(core.DefaultFuel, reg, nil)
	res, err := pool.Run(nil, be, 1, MustType(), "get_timeline", [][]byte{core.I64Bytes(coldPosts)})
	if err != nil {
		t.Fatal(err)
	}
	if want := coldPosts * (8 + 16 + coldBodyLen); len(res) != want {
		t.Fatalf("timeline is %d bytes, want %d", len(res), want)
	}
	fuel := reg.Counter("core.fuel_used").Value()
	t.Logf("cold get_timeline(%d): %d list_get, %d fuel", coldPosts, be.gets, fuel)
	if be.gets != coldPosts {
		t.Fatalf("list_get calls = %d, want %d: one per entry", be.gets, coldPosts)
	}
	// 45 host calls (arg, list_len, two allocs, 40 list_gets, set_result),
	// about 43 instructions per entry and ceil(116/8) per entry's memcopy.
	const wantFuel = 3727
	if fuel != wantFuel {
		t.Fatalf("fuel = %d, want %d", fuel, wantFuel)
	}
}
