package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWriteExclusion(t *testing.T) {
	tbl := NewTable()
	var inCritical atomic.Int32
	var maxSeen atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := tbl.Acquire(1, Write)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			n := inCritical.Add(1)
			for {
				cur := maxSeen.Load()
				if n <= cur || maxSeen.CompareAndSwap(cur, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inCritical.Add(-1)
			release()
		}()
	}
	wg.Wait()
	if maxSeen.Load() != 1 {
		t.Fatalf("%d writers in the critical section at once", maxSeen.Load())
	}
	if tbl.Len() != 0 {
		t.Fatalf("lock table leaked %d entries", tbl.Len())
	}
}

func TestReadersShare(t *testing.T) {
	tbl := NewTable()
	var concurrent atomic.Int32
	var peak atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			release, err := tbl.Acquire(1, Read)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			n := concurrent.Add(1)
			for {
				cur := peak.Load()
				if n <= cur || peak.CompareAndSwap(cur, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			concurrent.Add(-1)
			release()
		}()
	}
	close(start)
	wg.Wait()
	if peak.Load() < 2 {
		t.Fatalf("readers never overlapped (peak %d)", peak.Load())
	}
}

func TestWriterBlocksReaders(t *testing.T) {
	tbl := NewTable()
	release, err := tbl.Acquire(1, Write)
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		r, err := tbl.Acquire(1, Read)
		if err != nil {
			t.Errorf("read acquire: %v", err)
			close(acquired)
			return
		}
		close(acquired)
		r()
	}()
	select {
	case <-acquired:
		t.Fatal("reader admitted while writer held the object")
	case <-time.After(30 * time.Millisecond):
	}
	release()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("reader never admitted after writer release")
	}
}

func TestFIFOWriterNotStarved(t *testing.T) {
	tbl := NewTable()
	r1, err := tbl.Acquire(1, Read)
	if err != nil {
		t.Fatal(err)
	}
	// A writer queues behind the reader...
	writerAdmitted := make(chan struct{})
	go func() {
		w, err := tbl.Acquire(1, Write)
		if err != nil {
			t.Errorf("write acquire: %v", err)
			close(writerAdmitted)
			return
		}
		close(writerAdmitted)
		w()
	}()
	time.Sleep(10 * time.Millisecond)
	// ...and a second reader arrives: FIFO means it must NOT jump the
	// queued writer.
	reader2Admitted := make(chan struct{})
	go func() {
		r, err := tbl.Acquire(1, Read)
		if err != nil {
			t.Errorf("read acquire: %v", err)
			close(reader2Admitted)
			return
		}
		close(reader2Admitted)
		r()
	}()
	select {
	case <-reader2Admitted:
		t.Fatal("late reader jumped the queued writer")
	case <-time.After(30 * time.Millisecond):
	}
	r1()
	<-writerAdmitted
	<-reader2Admitted
}

func TestTimeout(t *testing.T) {
	tbl := NewTable()
	tbl.Timeout = 50 * time.Millisecond
	release, err := tbl.Acquire(1, Write)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	if _, err := tbl.Acquire(1, Write); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond || d > 2*time.Second {
		t.Fatalf("timeout after %v", d)
	}
}

func TestDifferentObjectsIndependent(t *testing.T) {
	tbl := NewTable()
	r1, err := tbl.Acquire(1, Write)
	if err != nil {
		t.Fatal(err)
	}
	defer r1()
	done := make(chan struct{})
	go func() {
		r2, err := tbl.Acquire(2, Write)
		if err != nil {
			t.Errorf("acquire 2: %v", err)
		} else {
			r2()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("independent object blocked")
	}
}

func TestStressManyObjects(t *testing.T) {
	tbl := NewTable()
	var wg sync.WaitGroup
	counters := make([]int64, 16)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				obj := uint64((w + i) % len(counters))
				mode := Write
				if i%3 == 0 {
					mode = Read
				}
				release, err := tbl.Acquire(obj, mode)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if mode == Write {
					counters[obj]++ // data race iff exclusion broken
				} else {
					_ = counters[obj]
				}
				release()
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != 0 {
		t.Fatalf("lock table leaked %d entries", tbl.Len())
	}
}

// TestAcquireReleaseAllocFree guards the uncontended path: a warm table
// hands out an idle entry and its release func bound at allocation, so an
// admission and its release allocate nothing.
func TestAcquireReleaseAllocFree(t *testing.T) {
	tbl := NewTable()
	id := uint64(0)
	cycle := func() {
		id++ // a fresh object each time: the entry comes off the free list
		for _, mode := range []Mode{Read, Write} {
			release, err := tbl.Acquire(id, mode)
			if err != nil {
				t.Fatal(err)
			}
			release()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("uncontended acquire/release allocates %.1f objects, want 0", allocs)
	}
}

// TestIdleEntriesRecycled checks that idle entries leave the table and
// that the free lists they go to stay bounded.
func TestIdleEntriesRecycled(t *testing.T) {
	tbl := NewTable()
	releases := make([]func(), 0, 10000)
	for id := uint64(0); id < 10000; id++ {
		release, err := tbl.Acquire(id, Write)
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	for _, release := range releases {
		release()
	}
	if n := tbl.Len(); n != 0 {
		t.Fatalf("%d idle entries left in the table", n)
	}
	for i := range tbl.shards {
		if n := len(tbl.shards[i].free); n > maxFreeLocks {
			t.Fatalf("shard %d keeps %d free entries, cap %d", i, n, maxFreeLocks)
		}
	}
}
