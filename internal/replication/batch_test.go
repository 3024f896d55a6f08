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
// more ships queue on the lane, then checks the queued write-sets arrived
// in strictly fewer frames than there were ships — the replication-layer
// group commit.
func TestShipCoalescingMergesFrames(t *testing.T) {
	const queued = 10
	db, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var frames, members atomic.Int64
	gate := make(chan struct{})
	srv := rpc.NewServer()
	RegisterBackup(srv, db, BulkApplierFunc(
		func(object uint64, b *store.Batch) error {
			if frames.Add(1) == 1 {
				<-gate // hold the lane busy so later ships pile up
			}
			members.Add(1)
			return db.Write(b)
		},
		func(objects []uint64, batches []*store.Batch) error {
			frames.Add(1)
			members.Add(int64(len(batches)))
			merged := store.NewBatch()
			for _, b := range batches {
				merged.Append(b)
			}
			return db.Write(merged)
		}))
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := rpc.NewPool(nil)
	defer pool.Close()
	s := NewShipper(pool, nil)
	defer s.Close()
	s.SetBackups([]string{addr})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := shipOne(s, 0, "blocker", "v"); err != nil {
			t.Errorf("blocker ship: %v", err)
		}
	}()
	for frames.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := shipOne(s, uint64(i+1), fmt.Sprintf("k%d", i), "v"); err != nil {
				t.Errorf("ship %d: %v", i, err)
			}
		}(i)
	}
	// Let every queued ship reach the lane before releasing the backup.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := members.Load(); got != queued+1 {
		t.Fatalf("applied members = %d, want %d", got, queued+1)
	}
	if got := frames.Load(); got >= queued+1 {
		t.Fatalf("no coalescing: %d frames for %d ships", got, queued+1)
	}
	for i := 0; i < queued; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("k%d not applied: %v", i, err)
		}
	}
}

// TestBulkApplierReceivesWholeFrame checks the wiring that lets a backup
// collapse a multi-member frame into one storage commit: a coalesced frame
// with several members must arrive through ApplyReplicatedBulk.
func TestBulkApplierReceivesWholeFrame(t *testing.T) {
	db, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var bulkCalls, bulkMembers atomic.Int64
	gate := make(chan struct{})
	var first atomic.Bool
	srv := rpc.NewServer()
	RegisterBackup(srv, db, BulkApplierFunc(
		func(object uint64, b *store.Batch) error {
			if first.CompareAndSwap(false, true) {
				<-gate
			}
			return db.Write(b)
		},
		func(objects []uint64, batches []*store.Batch) error {
			bulkCalls.Add(1)
			bulkMembers.Add(int64(len(batches)))
			merged := store.NewBatch()
			for _, b := range batches {
				merged.Append(b)
			}
			return db.Write(merged)
		}))
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := rpc.NewPool(nil)
	defer pool.Close()
	s := NewShipper(pool, nil)
	defer s.Close()
	s.SetBackups([]string{addr})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = shipOne(s, 0, "b0", "v")
	}()
	for !first.Load() {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = shipOne(s, uint64(i+1), fmt.Sprintf("bulk-k%d", i), "v")
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if bulkCalls.Load() == 0 || bulkMembers.Load() < 2 {
		t.Fatalf("bulk apply not engaged: calls=%d members=%d", bulkCalls.Load(), bulkMembers.Load())
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("bulk-k%d", i))); err != nil {
			t.Fatalf("bulk-k%d not applied: %v", i, err)
		}
	}
}

// TestLaneFrameErrorFailsExactlyItsMembers pins the failure granularity of
// the send lane: when the backup rejects one coalesced frame, every ship
// that rode in that frame fails and is reported, while the ships in the
// frames before and after it succeed.
func TestLaneFrameErrorFailsExactlyItsMembers(t *testing.T) {
	const queued = 5
	db, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	gate := make(chan struct{})
	var first atomic.Bool
	srv := rpc.NewServer()
	RegisterBackup(srv, db, BulkApplierFunc(
		func(object uint64, b *store.Batch) error {
			if first.CompareAndSwap(false, true) {
				<-gate // hold the lane busy so the doomed ships share a frame
			}
			return db.Write(b)
		},
		func(objects []uint64, batches []*store.Batch) error {
			return fmt.Errorf("backup rejects frame of %d", len(batches))
		}))
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := rpc.NewPool(nil)
	defer pool.Close()
	reg := telemetry.NewRegistry()
	pool.SetTelemetry(reg)
	var reported atomic.Int64
	s := NewShipper(pool, func(string, error) { reported.Add(1) })
	defer s.Close()
	s.SetBackups([]string{addr})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := shipOne(s, 0, "before", "v"); err != nil {
			t.Errorf("ship before the bad frame: %v", err)
		}
	}()
	for !first.Load() {
		time.Sleep(time.Millisecond)
	}
	lane := s.lane(addr)
	var failed atomic.Int64
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := shipOne(s, uint64(i+1), fmt.Sprintf("doomed-k%d", i), "v")
			if !errors.Is(err, ErrBackupFailed) {
				t.Errorf("ship %d in the rejected frame: err = %v, want ErrBackupFailed", i, err)
				return
			}
			failed.Add(1)
		}(i)
	}
	// Release the backup only once every doomed ship sits on the lane, so
	// they leave in one frame.
	for {
		lane.mu.Lock()
		n := len(lane.pending)
		lane.mu.Unlock()
		if n == queued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if err := shipOne(s, 99, "after", "v"); err != nil {
		t.Fatalf("ship after the bad frame: %v", err)
	}
	if got := failed.Load(); got != queued {
		t.Fatalf("failed ships = %d, want %d", got, queued)
	}
	if got := reported.Load(); got != queued {
		t.Fatalf("failure callbacks = %d, want %d", got, queued)
	}
	if got := reg.Counter("repl.shipped").Value(); got != 2 {
		t.Fatalf("repl.shipped = %d, want 2 (before + after)", got)
	}
	for _, k := range []string{"before", "after"} {
		if _, err := db.Get([]byte(k)); err != nil {
			t.Fatalf("%s not applied: %v", k, err)
		}
	}
	for i := 0; i < queued; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("doomed-k%d", i))); err != store.ErrNotFound {
			t.Fatalf("doomed-k%d landed despite the rejected frame: err = %v", i, err)
		}
	}
}
