package replication

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// startBackup boots a store with the backup handlers registered.
func startBackup(t *testing.T) (*store.DB, string) {
	t.Helper()
	db, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := rpc.NewServer()
	RegisterBackup(srv, db, ApplierFunc(func(object uint64, b *store.Batch) error {
		return db.Write(b)
	}))
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, addr
}

func TestShipAppliesAtAllBackups(t *testing.T) {
	db1, addr1 := startBackup(t)
	db2, addr2 := startBackup(t)
	pool := rpc.NewPool(nil)
	defer pool.Close()
	reg := telemetry.NewRegistry()
	pool.SetTelemetry(reg)
	s := NewShipper(pool, nil)
	s.SetBackups([]string{addr1, addr2})

	b := store.NewBatch()
	b.Put([]byte("k1"), []byte("v1"))
	b.Delete([]byte("k2"))
	if err := s.Ship(7, b); err != nil {
		t.Fatal(err)
	}
	for i, db := range []*store.DB{db1, db2} {
		v, err := db.Get([]byte("k1"))
		if err != nil || string(v) != "v1" {
			t.Fatalf("backup %d: k1 = %q, %v", i, v, err)
		}
	}
	if got := reg.Counter("repl.shipped").Value(); got != 1 {
		t.Fatalf("repl.shipped = %d", got)
	}
}

func TestShipNoBackupsIsNoop(t *testing.T) {
	pool := rpc.NewPool(nil)
	defer pool.Close()
	s := NewShipper(pool, nil)
	b := store.NewBatch()
	b.Put([]byte("k"), []byte("v"))
	if err := s.Ship(1, b); err != nil {
		t.Fatal(err)
	}
}

func TestShipReportsFailedBackup(t *testing.T) {
	_, addr1 := startBackup(t)
	pool := rpc.NewPool(nil)
	defer pool.Close()
	reg := telemetry.NewRegistry()
	pool.SetTelemetry(reg)
	s := NewShipper(pool, nil)
	s.SetBackups([]string{addr1, "127.0.0.1:1"}) // port 1: refused

	b := store.NewBatch()
	b.Put([]byte("k"), []byte("v"))
	err := s.Ship(1, b)
	if !errors.Is(err, ErrBackupFailed) || !strings.Contains(err.Error(), "127.0.0.1:1") {
		t.Fatalf("err = %v, want ErrBackupFailed naming the refused backup", err)
	}
	if got := reg.Counter("repl.backup_failures").Value(); got != 1 {
		t.Fatalf("repl.backup_failures = %d, want 1", got)
	}
	if got := reg.Counter("repl.shipped").Value(); got != 0 {
		t.Fatalf("repl.shipped = %d after a failed ship", got)
	}
}

func TestConcurrentShipping(t *testing.T) {
	db1, addr1 := startBackup(t)
	pool := rpc.NewPool(nil)
	defer pool.Close()
	s := NewShipper(pool, nil)
	s.SetBackups([]string{addr1})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b := store.NewBatch()
				b.Put([]byte(fmt.Sprintf("w%d-k%d", w, i)), []byte("v"))
				if err := s.Ship(uint64(w), b); err != nil {
					t.Errorf("ship: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		for i := 0; i < 50; i++ {
			if _, err := db1.Get([]byte(fmt.Sprintf("w%d-k%d", w, i))); err != nil {
				t.Fatalf("missing w%d-k%d: %v", w, i, err)
			}
		}
	}
}

// TestShipAllocBound guards the replication half of a commit: shipping one
// write-set to two backups and applying it there costs, over the two RPC
// round trips that carry it, a handful of allocations — no entry, channel,
// encode buffer or frame per ship, no message, batch or copy per apply.
// The round trips' own cost is measured beside it, on the same pool and
// servers, and subtracted.
func TestShipAllocBound(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		db, err := store.Open(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv := rpc.NewServer()
		RegisterBackup(srv, db, ApplierFunc(func(_ uint64, b *store.Batch) error { return db.Write(b) }))
		srv.Handle("noop", func([]byte) ([]byte, error) { return nil, nil })
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, addr)
	}
	pool := rpc.NewPool(nil)
	defer pool.Close()
	s := NewShipper(pool, nil)
	defer s.Close()
	s.SetBackups(addrs)

	b := store.NewBatch()
	for i := 0; i < 8; i++ {
		b.Put([]byte(fmt.Sprintf("key%d", i)), make([]byte, 100))
	}
	body := b.Encode()
	ship := func() {
		if err := s.Ship(7, b); err != nil {
			t.Fatal(err)
		}
	}
	roundTrips := func() {
		for _, addr := range addrs {
			if _, err := pool.Call(addr, "noop", body); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		ship()
		roundTrips()
	}
	rpcs := testing.AllocsPerRun(300, roundTrips)
	total := testing.AllocsPerRun(300, ship)
	if own := total - rpcs; own > 4 && !raceEnabled {
		t.Fatalf("Ship to two backups allocates %.1f objects over its round trips' %.1f, want <= 4", own, rpcs)
	}
	t.Logf("Ship to two backups: %.1f allocs, %.1f of them the two round trips", total, rpcs)
}
