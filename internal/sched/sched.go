// Package sched implements LambdaStore's combined function scheduler and
// concurrency control (paper §4.2): because a method may only touch its own
// object's data, the node never schedules two mutating invocations of the
// same object at once — objects are "the lowest form of concurrency" and
// the application developer chooses lock granularity by choosing object
// boundaries.
//
// The lock table provides per-object reader/writer admission with FIFO
// fairness and timeouts (the timeout converts cross-object invocation
// deadlocks, which the model permits applications to write, into errors
// instead of hangs).
package sched

import (
	"errors"
	"slices"
	"sync"
	"time"
)

// ErrTimeout is returned when an invocation could not be admitted before
// the deadline, e.g. due to a lock cycle between mutually invoking objects.
var ErrTimeout = errors.New("sched: lock acquisition timed out")

// Mode distinguishes read-only from mutating invocations.
type Mode int

const (
	// Read admissions share the object with other reads.
	Read Mode = iota
	// Write admissions are exclusive.
	Write
)

// waiter is one queued acquisition. Waiters are pooled with their ready
// channel, which a grant sends on (it holds one signal, and the waiter takes
// it before going back to the pool), and their timer.
type waiter struct {
	mode  Mode
	ready chan struct{}
	timer *time.Timer
}

var waiters = sync.Pool{New: func() any {
	w := &waiter{ready: make(chan struct{}, 1), timer: time.NewTimer(time.Hour)}
	w.timer.Stop()
	return w
}}

// objLock is a FIFO reader/writer lock for a single object. Idle entries
// are recycled through their shard's free list.
type objLock struct {
	readers int
	writer  bool
	queue   []*waiter
	// refs counts holders plus waiters so the table can garbage-collect
	// idle entries.
	refs int

	id    uint64
	shard *tableShard
	// releases holds the entry's release funcs, indexed by Mode: method
	// values bound once, when the entry is allocated, so a grant hands one
	// out without allocating.
	releases [2]func()
}

func (l *objLock) releaseRead()  { l.shard.release(l, Read) }
func (l *objLock) releaseWrite() { l.shard.release(l, Write) }

// numShards is the lock-table fan-out. Admissions for different objects
// rarely contend: they only share a shard's mutex with the other objects
// that hash to it, never a global one.
const numShards = 64

// maxFreeLocks bounds each shard's free list of idle entries.
const maxFreeLocks = 16

// tableShard is one independently locked slice of the table.
type tableShard struct {
	mu    sync.Mutex
	locks map[uint64]*objLock
	free  []*objLock
}

// Table is a sharded lock table keyed by object ID: object state lives in
// one of numShards independently mutexed maps, so concurrent admissions for
// different objects proceed in parallel.
type Table struct {
	shards [numShards]tableShard

	// wait bounds each acquisition; zero means 10s. Only tests set it.
	wait time.Duration
}

// NewTable returns an empty lock table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].locks = make(map[uint64]*objLock)
	}
	return t
}

// lock returns id's entry, taking an idle one from the free list or
// allocating one when there is none. Caller holds the shard mutex.
func (s *tableShard) lock(id uint64) *objLock {
	if l, ok := s.locks[id]; ok {
		return l
	}
	var l *objLock
	if n := len(s.free); n > 0 {
		l, s.free = s.free[n-1], s.free[:n-1]
	} else {
		l = &objLock{shard: s}
		l.releases = [2]func(){Read: l.releaseRead, Write: l.releaseWrite}
	}
	l.id = id
	s.locks[id] = l
	return l
}

// shard maps an object ID to its shard. Object IDs are often sequential, so
// mix the bits (Fibonacci hashing) before taking the top bits.
func (t *Table) shard(id uint64) *tableShard {
	return &t.shards[(id*0x9E3779B97F4A7C15)>>(64-6)]
}

// timeout returns the effective acquisition deadline.
func (t *Table) timeout() time.Duration {
	if t.wait > 0 {
		return t.wait
	}
	return 10 * time.Second
}

// Acquire admits an invocation on object id in the given mode, blocking
// until admitted or timed out. On success the returned release function
// must be called exactly once: it is bound to the object's entry, which is
// recycled for another object once idle.
func (t *Table) Acquire(id uint64, mode Mode) (release func(), err error) {
	s := t.shard(id)
	s.mu.Lock()
	l := s.lock(id)
	l.refs++

	// Fast path: grant immediately if compatible and nobody is queued
	// (queue check preserves FIFO fairness — a waiting writer blocks new
	// readers).
	if len(l.queue) == 0 && grantable(l, mode) {
		grant(l, mode)
		s.mu.Unlock()
		return l.releases[mode], nil
	}

	w := waiters.Get().(*waiter)
	w.mode = mode
	l.queue = append(l.queue, w)
	s.mu.Unlock()

	w.timer.Reset(t.timeout())
	select {
	case <-w.ready:
		// A timer stopped too late may still deliver its tick, into this
		// waiter's next wait: such a waiter is left to the collector.
		if w.timer.Stop() {
			waiters.Put(w)
		}
		return l.releases[mode], nil
	case <-w.timer.C:
	}
	defer waiters.Put(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check: the grant may have raced the timeout.
	select {
	case <-w.ready:
		return l.releases[mode], nil
	default:
	}
	i := slices.Index(l.queue, w)
	l.queue = slices.Delete(l.queue, i, i+1)
	l.refs--
	s.maybeDrop(l)
	return nil, ErrTimeout
}

// grantable reports whether mode can be admitted now. Caller holds the
// shard mutex.
func grantable(l *objLock, mode Mode) bool {
	if l.writer {
		return false
	}
	if mode == Write {
		return l.readers == 0
	}
	return true
}

// grant records an admission. Caller holds the shard mutex.
func grant(l *objLock, mode Mode) {
	if mode == Write {
		l.writer = true
	} else {
		l.readers++
	}
}

// release ends an admission and wakes compatible queued waiters in order.
func (s *tableShard) release(l *objLock, mode Mode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if mode == Write {
		l.writer = false
	} else {
		l.readers--
	}
	l.refs--

	// Admit the longest-waiting compatible prefix: either one writer, or a
	// run of readers.
	for len(l.queue) > 0 {
		head := l.queue[0]
		if !grantable(l, head.mode) {
			break
		}
		grant(l, head.mode)
		l.queue = slices.Delete(l.queue, 0, 1)
		// Signalled, head is its waiter's again (and may be back in the
		// pool): read its mode first.
		writer := head.mode == Write
		head.ready <- struct{}{}
		if writer {
			break
		}
	}
	s.maybeDrop(l)
}

// maybeDrop garbage-collects an idle lock entry onto the free list, while
// the list has room. Caller holds the shard mutex.
func (s *tableShard) maybeDrop(l *objLock) {
	if l.refs == 0 && !l.writer && l.readers == 0 && len(l.queue) == 0 {
		delete(s.locks, l.id)
		if len(s.free) < maxFreeLocks {
			s.free = append(s.free, l)
		}
	}
}

// Len returns the number of objects with active or queued admissions
// (for tests and stats).
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.locks)
		s.mu.Unlock()
	}
	return n
}
