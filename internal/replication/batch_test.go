package replication

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// startFencedBackup boots a backup whose local configuration epoch is
// fixed, with a registry so the test can observe fence rejections.
func startFencedBackup(t *testing.T, epoch uint64) (*store.DB, string, *telemetry.Registry) {
	t.Helper()
	db, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	reg := telemetry.NewRegistry()
	srv := rpc.NewServer()
	RegisterBackupLeased(srv, ApplierFunc(func(object uint64, b *store.Batch) error {
		return db.Write(b)
	}), nil, reg, func() uint64 { return epoch }, nil)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, addr, reg
}

func shipOne(s *Shipper, object uint64, key, val string) error {
	b := store.NewBatch()
	b.Put([]byte(key), []byte(val))
	return s.Ship(object, b)
}

// startPrimary opens a store whose group hook ships through s, as a node's
// does: the group holds the writer queue across the send, and a failed send
// withholds every member's ack.
func startPrimary(t *testing.T, s *Shipper) *store.DB {
	t.Helper()
	db, err := store.Open(t.TempDir(), &store.Options{OnGroup: func(g *store.Group) {
		if err := s.ShipGroup(telemetry.SpanContext{}, g); err != nil {
			for i := range g.Len() {
				g.Fail(i, err)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// commitOne writes one key through the primary as a write-set of object.
func commitOne(db *store.DB, object uint64, key, val string) error {
	b := store.NewBatch()
	b.Put([]byte(key), []byte(val))
	b.Replicate(object, telemetry.SpanContext{})
	return db.Write(b)
}

// gatedBackup serves applyBatch on db and holds its first frame until gate
// closes; first reports when that frame arrived. onFrame sees every frame.
func gatedBackup(t *testing.T, gate <-chan struct{}, onFrame func(batches []*store.Batch) error) (addr string, first <-chan struct{}) {
	t.Helper()
	arrived := make(chan struct{})
	var once sync.Once
	srv := rpc.NewServer()
	RegisterBackup(srv, nil, func(objects []uint64, batches []*store.Batch) error {
		held := false
		once.Do(func() { held = true; close(arrived) })
		if held {
			<-gate
		}
		return onFrame(batches)
	})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, arrived
}

// TestStaleEpochRejected is the deposed-primary fence (DESIGN.md §8): a
// shipper stamping an epoch older than the backup's must not land a single
// write-set, while the current epoch — and the unfenced epoch 0 — pass.
func TestStaleEpochRejected(t *testing.T) {
	db, addr, reg := startFencedBackup(t, 5)
	pool := rpc.NewPool(nil)
	defer pool.Close()
	s := NewShipper(pool, nil)
	defer s.Close()
	s.SetBackups([]string{addr})

	s.SetEpoch(4)
	err := shipOne(s, 1, "stale-key", "v")
	if err == nil {
		t.Fatal("ship from deposed epoch 4 succeeded against epoch-5 backup")
	}
	if !strings.Contains(err.Error(), "stale configuration epoch") {
		t.Fatalf("ship error = %v, want stale-epoch rejection", err)
	}
	if got := reg.Counter("repl.stale_epoch").Value(); got != 1 {
		t.Fatalf("repl.stale_epoch = %d, want 1", got)
	}
	if _, err := db.Get([]byte("stale-key")); err != store.ErrNotFound {
		t.Fatalf("stale write-set landed: err = %v", err)
	}

	s.SetEpoch(5)
	if err := shipOne(s, 1, "current-key", "v"); err != nil {
		t.Fatalf("ship at current epoch: %v", err)
	}
	s.SetEpoch(0)
	if err := shipOne(s, 1, "unfenced-key", "v"); err != nil {
		t.Fatalf("unfenced ship: %v", err)
	}
	for _, k := range []string{"current-key", "unfenced-key"} {
		if _, err := db.Get([]byte(k)); err != nil {
			t.Fatalf("%s not applied: %v", k, err)
		}
	}
	if got := reg.Counter("repl.stale_epoch").Value(); got != 1 {
		t.Fatalf("repl.stale_epoch = %d after accepted ships, want 1", got)
	}
}

// TestShipCoalescingMergesFrames holds the backup's first frame open while
// more commits queue behind the group that sent it, then checks the queued
// write-sets arrived in strictly fewer frames than there were commits: the
// next write group is the next frame.
func TestShipCoalescingMergesFrames(t *testing.T) {
	const queued = 10
	backup, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	var frames, members atomic.Int64
	gate := make(chan struct{})
	addr, first := gatedBackup(t, gate, func(batches []*store.Batch) error {
		frames.Add(1)
		members.Add(int64(len(batches)))
		return backup.Write(batches...)
	})
	pool := rpc.NewPool(nil)
	defer pool.Close()
	reg := telemetry.NewRegistry()
	pool.SetTelemetry(reg)
	s := NewShipper(pool, nil)
	defer s.Close()
	s.SetBackups([]string{addr})
	primary := startPrimary(t, s)

	var wg sync.WaitGroup
	commit := func(object uint64, key string) {
		defer wg.Done()
		if err := commitOne(primary, object, key, "v"); err != nil {
			t.Errorf("commit %s: %v", key, err)
		}
	}
	wg.Add(1)
	go commit(0, "blocker")
	<-first
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go commit(uint64(i+1), fmt.Sprintf("k%d", i))
	}
	// Let every queued commit reach the writer queue before releasing the
	// backup.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := members.Load(); got != queued+1 {
		t.Fatalf("applied members = %d, want %d", got, queued+1)
	}
	if got := frames.Load(); got >= queued+1 {
		t.Fatalf("no coalescing: %d frames for %d commits", got, queued+1)
	}
	if got := reg.Counter("repl.shipped").Value(); got != queued+1 {
		t.Fatalf("repl.shipped = %d, want one per member", got)
	}
	for i := 0; i < queued; i++ {
		if _, err := backup.Get([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("k%d not applied: %v", i, err)
		}
	}
}

// TestApplierReceivesWholeFrame checks the wiring that lets a backup log a
// multi-member frame as one storage commit: a group with several members
// arrives in one Applier call, and one Write of its batches is one fsync.
func TestApplierReceivesWholeFrame(t *testing.T) {
	reg := telemetry.NewRegistry()
	backup, err := store.Open(t.TempDir(), &store.Options{SyncWrites: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	var bulkCalls, bulkMembers atomic.Int64
	gate := make(chan struct{})
	addr, first := gatedBackup(t, gate, func(batches []*store.Batch) error {
		if len(batches) > 1 {
			bulkCalls.Add(1)
			bulkMembers.Add(int64(len(batches)))
		}
		return backup.Write(batches...)
	})
	pool := rpc.NewPool(nil)
	defer pool.Close()
	s := NewShipper(pool, nil)
	defer s.Close()
	s.SetBackups([]string{addr})
	primary := startPrimary(t, s)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = commitOne(primary, 0, "b0", "v")
	}()
	<-first
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = commitOne(primary, uint64(i+1), fmt.Sprintf("bulk-k%d", i), "v")
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if bulkCalls.Load() == 0 || bulkMembers.Load() < 2 {
		t.Fatalf("bulk apply not engaged: calls=%d members=%d", bulkCalls.Load(), bulkMembers.Load())
	}
	if w, s := reg.Counter("store.writes").Value(), reg.Counter("store.wal_syncs").Value(); w != s {
		t.Fatalf("backup store.writes = %d, store.wal_syncs = %d: want one fsync per frame", w, s)
	}
	for i := 0; i < 4; i++ {
		if _, err := backup.Get([]byte(fmt.Sprintf("bulk-k%d", i))); err != nil {
			t.Fatalf("bulk-k%d not applied: %v", i, err)
		}
	}
}

// TestGroupFrameErrorFailsExactlyItsMembers pins the failure granularity of
// a group send: when the backup rejects a frame, every commit that rode in
// it fails — applied at the primary, its ack withheld — while the commits
// in the frames before and after it succeed.
func TestGroupFrameErrorFailsExactlyItsMembers(t *testing.T) {
	const queued = 5
	backup, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	gate := make(chan struct{})
	addr, first := gatedBackup(t, gate, func(batches []*store.Batch) error {
		for _, b := range batches {
			doomed := false
			b.ForEach(func(_ byte, key, _ []byte) error { //nolint:errcheck
				doomed = doomed || strings.HasPrefix(string(key), "doomed-")
				return nil
			})
			if doomed {
				return fmt.Errorf("backup rejects frame of %d", len(batches))
			}
		}
		return backup.Write(batches...)
	})
	pool := rpc.NewPool(nil)
	defer pool.Close()
	reg := telemetry.NewRegistry()
	pool.SetTelemetry(reg)
	s := NewShipper(pool, nil)
	defer s.Close()
	s.SetBackups([]string{addr})
	primary := startPrimary(t, s)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := commitOne(primary, 0, "before", "v"); err != nil {
			t.Errorf("commit before the bad frame: %v", err)
		}
	}()
	<-first
	var failed atomic.Int64
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := commitOne(primary, uint64(i+1), fmt.Sprintf("doomed-k%d", i), "v")
			if withheld, ok := err.(*store.HookError); !ok || !errors.Is(withheld.Err, ErrBackupFailed) {
				t.Errorf("commit %d in the rejected frame: err = %v, want its ack withheld", i, err)
				return
			}
			failed.Add(1)
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if err := commitOne(primary, 99, "after", "v"); err != nil {
		t.Fatalf("commit after the bad frame: %v", err)
	}
	if got := failed.Load(); got != queued {
		t.Fatalf("failed commits = %d, want %d", got, queued)
	}
	if got := reg.Counter("repl.shipped").Value(); got != 2 {
		t.Fatalf("repl.shipped = %d, want 2 (before + after)", got)
	}
	for _, k := range []string{"before", "after"} {
		if _, err := backup.Get([]byte(k)); err != nil {
			t.Fatalf("%s not applied: %v", k, err)
		}
	}
	for i := 0; i < queued; i++ {
		key := []byte(fmt.Sprintf("doomed-k%d", i))
		if _, err := backup.Get(key); err != store.ErrNotFound {
			t.Fatalf("doomed-k%d landed despite the rejected frame: err = %v", i, err)
		}
		if _, err := primary.Get(key); err != nil {
			t.Fatalf("doomed-k%d not applied at the primary: %v", i, err)
		}
	}
}
