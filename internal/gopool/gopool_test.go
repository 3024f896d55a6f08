package gopool

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// poll reports whether cond held within d, checking it between yields.
func poll(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		if cond() {
			return true
		}
		runtime.Gosched()
	}
	return cond()
}

// goid is the calling goroutine's id, read from its stack header
// ("goroutine 17 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// workers counts the pool's goroutines in a dump of every stack: all of
// them, and those blocked waiting for a task.
func workers() (all, waiting int) {
	buf := make([]byte, 1<<20)
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("internal/gopool.work(")) {
			all++
			if bytes.Contains(g, []byte("[chan receive")) {
				waiting++
			}
		}
	}
	return all, waiting
}

// quiesce waits until every worker a previous test left is parked: none
// is mid-task or on its way out.
func quiesce(t *testing.T) {
	t.Helper()
	if !poll(5*time.Second, func() bool {
		all, waiting := workers()
		return all == waiting && waiting == int(parked.Load())
	}) {
		all, waiting := workers()
		t.Fatalf("pool never settled: %d workers, %d waiting, %d counted parked", all, waiting, parked.Load())
	}
}

// TestSequentialTasksReuseOneWorker: tasks handed over one at a time, each
// after the last one's worker parked, run on the workers already parked —
// on one goroutine when the test starts with none — and 1,000 of them leave
// the process's goroutine count where it was.
func TestSequentialTasksReuseOneWorker(t *testing.T) {
	ids := make(chan uint64, 1)
	task := func() { ids <- goid() }
	waitParked := func(n int32) {
		if !poll(5*time.Second, func() bool { return parked.Load() >= n }) {
			t.Fatalf("%d workers parked, want %d", parked.Load(), n)
		}
	}
	quiesce(t)
	workers := max(parked.Load(), 1)
	Go(task)
	<-ids
	waitParked(workers)
	before := runtime.NumGoroutine()
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		Go(task)
		seen[<-ids] = true
		waitParked(workers)
	}
	if len(seen) > int(workers) {
		t.Fatalf("1,000 sequential tasks ran on %d goroutines, want at most the %d parked workers", len(seen), workers)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 1,000 sequential tasks, %d after", before, after)
	}
}

// TestBurstLeavesAtMostCapParked: a burst of maxParked+64 tasks all running
// at once each get a goroutine (none waits for another to finish), and once
// they are done exactly maxParked workers stay parked; the rest exit.
func TestBurstLeavesAtMostCapParked(t *testing.T) {
	quiesce(t)
	const n = maxParked + 64
	var started, done sync.WaitGroup
	release := make(chan struct{})
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		Go(func() {
			started.Done()
			<-release
			done.Done()
		})
	}
	started.Wait() // all n block at once: no task waited for a worker
	close(release)
	done.Wait()
	settled := func() bool {
		all, waiting := workers()
		return all == maxParked && waiting == maxParked && parked.Load() == maxParked
	}
	if !poll(5*time.Second, settled) {
		all, waiting := workers()
		t.Fatalf("after a burst of %d: %d workers, %d waiting, %d counted parked; want the cap, %d",
			n, all, waiting, parked.Load(), maxParked)
	}
}

// TestConcurrentGoRunsEveryTaskOnce hands tasks over from several
// goroutines at once while workers park and get claimed; under -race it
// checks the claim/park handshake.
func TestConcurrentGoRunsEveryTaskOnce(t *testing.T) {
	const senders, each = 8, 500
	var ran [senders * each]int32
	var wg sync.WaitGroup
	wg.Add(senders * each)
	for s := 0; s < senders; s++ {
		go func(s int) {
			for i := 0; i < each; i++ {
				k := s*each + i
				Go(func() { ran[k]++; wg.Done() })
			}
		}(s)
	}
	wg.Wait()
	for k, n := range ran {
		if n != 1 {
			t.Fatalf("task %d ran %d times", k, n)
		}
	}
}
