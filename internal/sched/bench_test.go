package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkAcquireDistinctObjects measures uncontended-path throughput when
// every goroutine works on its own object: the case sharding exists for.
// With one global mutex every acquisition serializes; with 64 shards they
// mostly proceed in parallel.
func BenchmarkAcquireDistinctObjects(b *testing.B) {
	t := NewTable()
	var next atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		// One object per goroutine, spread across shards.
		id := next.Add(1) * 7919
		for pb.Next() {
			release, err := t.Acquire(id, Write)
			if err != nil {
				b.Error(err)
				return
			}
			release()
		}
	})
}

// BenchmarkAcquireSharedObject measures the worst case — all goroutines
// fight over one object — to confirm sharding does not regress the
// single-object path (all traffic lands on one shard, as before).
func BenchmarkAcquireSharedObject(b *testing.B) {
	t := NewTable()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			release, err := t.Acquire(42, Write)
			if err != nil {
				b.Error(err)
				return
			}
			release()
		}
	})
}

// BenchmarkAcquireReadShared measures shared-mode admissions on one hot
// object (replica reads of a popular object).
func BenchmarkAcquireReadShared(b *testing.B) {
	t := NewTable()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			release, err := t.Acquire(42, Read)
			if err != nil {
				b.Error(err)
				return
			}
			release()
		}
	})
}

// BenchmarkAcquire is one uncontended admission and release on a warm
// table: make bench requires it to report 0 allocs/op.
func BenchmarkAcquire(b *testing.B) {
	t := NewTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		release, err := t.Acquire(uint64(i), Write)
		if err != nil {
			b.Fatal(err)
		}
		release()
	}
}

// BenchmarkAcquireContended is one admission that queues behind a writer and
// is granted by the writer's release: make bench requires it to report 0
// allocs/op.
func BenchmarkAcquireContended(b *testing.B) {
	cycle, stop := contendedCycle(NewTable(), b)
	defer stop()
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// contendedCycle returns one contended admission on t: this goroutine holds
// object 42 for writing until a second one has queued a write behind it,
// then releases, and the queued admission is granted and released. stop
// ends the second goroutine.
func contendedCycle(t *Table, tb testing.TB) (cycle, stop func()) {
	const id = 42
	start, done := make(chan struct{}), make(chan struct{})
	go func() {
		for range start {
			release, err := t.Acquire(id, Write)
			if err != nil {
				tb.Error(err)
			} else {
				release()
			}
			done <- struct{}{}
		}
	}()
	cycle = func() {
		release, err := t.Acquire(id, Write)
		if err != nil {
			tb.Fatal(err)
		}
		start <- struct{}{}
		for t.queued(id) == 0 {
			runtime.Gosched()
		}
		release()
		<-done
	}
	return cycle, func() { close(start) }
}

// queued returns how many admissions wait on object id.
func (t *Table) queued(id uint64) int {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.locks[id]; ok {
		return len(l.queue)
	}
	return 0
}
