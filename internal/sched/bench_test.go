package sched

import (
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
