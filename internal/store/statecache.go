package store

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// stateCache is the hot-object state cache: a sharded LRU of committed
// key→value records sitting in front of the memtable/SSTable read path, so
// cache-miss re-execution of a read-only method stops paying a full LSM
// lookup (and the db.mu acquisition) per key it touches.
//
// Correctness protocol. An entry (key, val, present, seq) asserts: "the
// committed value of key has not changed since sequence seq". That claim
// stays true because every write batch, while it is being applied under
// db.mu, write-throughs or invalidates the entries of the keys it touches.
// A lookup at snapshot sequence S may therefore serve an entry whenever
// S >= seq. Inserts race with writers: a reader captures the global
// generation counter at the same instant its snapshot sequence is taken
// (under db.mu), and the insert is abandoned if any write has bumped the
// generation since — the reader can no longer prove its value is still
// current. Writers bump the generation *before* touching the shards, so
// the only insert that can slip past a concurrent writer's bump is one
// whose entry the writer then overwrites or invalidates itself.
//
// Ownership protocol. An entry's key and value buffers are read and
// written only under its shard's lock, and nothing outside the lock ever
// aliases them: a hit copies the value into the caller's buffer (or shows
// it to a visitor) before unlocking. That is what lets a write-through
// rewrite a value in place and lets a fill at capacity recycle the LRU
// victim — entry, key storage and value buffer — for the incoming record
// instead of allocating: in steady state a fill allocates nothing.
type stateCache struct {
	gen    atomic.Uint64
	shards []*scShard
	mask   uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

type scShard struct {
	mu sync.Mutex
	// index maps a key's hash to the entries carrying it, chained through
	// scEntry.chain (distinct keys may share a hash). The key bytes are
	// compared in the entry, so the index needs no per-key string.
	index map[uint64]*scEntry
	// lru is the sentinel of the circular recency list: lru.next is the
	// most recently used entry, lru.prev the eviction victim.
	lru      scEntry
	n        int
	capacity int
}

type scEntry struct {
	hash       uint64
	key        []byte
	val        []byte
	present    bool
	seq        uint64
	prev, next *scEntry // recency list
	chain      *scEntry // next entry with the same hash
}

// scShardCount is the lock-stripe width; reads of distinct hot keys should
// essentially never contend.
const scShardCount = 64

func newStateCache(entries int) *stateCache {
	n := scShardCount
	for n > 1 && entries/n < 8 {
		n >>= 1
	}
	per := entries / n
	if per < 1 {
		per = 1
	}
	sc := &stateCache{shards: make([]*scShard, n), mask: uint64(n - 1)}
	for i := range sc.shards {
		s := &scShard{index: make(map[uint64]*scEntry), capacity: per}
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		sc.shards[i] = s
	}
	return sc
}

// scHash is FNV-1a over the key bytes (inlined to avoid the hash.Hash
// allocation on this very hot path).
func scHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// find returns key's entry, or nil. Caller holds s.mu.
func (s *scShard) find(hash uint64, key []byte) *scEntry {
	for e := s.index[hash]; e != nil; e = e.chain {
		if bytes.Equal(e.key, key) {
			return e
		}
	}
	return nil
}

// touch makes e the most recently used entry. Caller holds s.mu.
func (s *scShard) touch(e *scEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	s.pushFront(e)
}

func (s *scShard) pushFront(e *scEntry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// evict unlinks the least recently used entry from the recency list and
// the index and returns it for reuse. Caller holds s.mu; s.n > 0.
func (s *scShard) evict() *scEntry {
	e := s.lru.prev
	e.prev.next, e.next.prev = e.next, e.prev
	if head := s.index[e.hash]; head == e {
		if e.chain == nil {
			delete(s.index, e.hash)
		} else {
			s.index[e.hash] = e.chain
		}
	} else {
		for head.chain != e {
			head = head.chain
		}
		head.chain = e.chain
	}
	return e
}

// recycle overwrites buf with src, reusing its storage unless it outgrew
// scratchRetainMax.
func recycle(buf, src []byte) []byte { return append(retained(buf), src...) }

// lookupInto serves key at snapshot sequence seq. ok reports whether the
// cache could answer at all; on ok, present distinguishes a live value —
// appended to dst under the shard lock — from a cached tombstone/absence.
func (sc *stateCache) lookupInto(dst, key []byte, seq uint64) (val []byte, present, ok bool) {
	h := scHash(key)
	s := sc.shards[h&sc.mask]
	s.mu.Lock()
	e := s.find(h, key)
	if e == nil || seq < e.seq {
		s.mu.Unlock()
		sc.misses.Add(1)
		return dst, false, false
	}
	s.touch(e)
	present = e.present
	if present {
		dst = append(dst, e.val...)
	}
	s.mu.Unlock()
	sc.hits.Add(1)
	return dst, present, true
}

// visit is lookupInto without the copy: on a hit, fn observes the cached
// value in place under the shard lock. fn must not retain or mutate the
// slice. For latest-state reads only (any live entry is valid).
func (sc *stateCache) visit(key []byte, fn func(val []byte, present bool)) bool {
	h := scHash(key)
	s := sc.shards[h&sc.mask]
	s.mu.Lock()
	e := s.find(h, key)
	if e == nil {
		s.mu.Unlock()
		sc.misses.Add(1)
		return false
	}
	s.touch(e)
	fn(e.val, e.present)
	s.mu.Unlock()
	sc.hits.Add(1)
	return true
}

// insert records a value read at snapshot sequence seq, but only if no
// write has committed since gen was captured (alongside seq, under db.mu).
// val is copied; at capacity the copy lands in the evicted entry's buffers.
func (sc *stateCache) insert(key, val []byte, present bool, seq, gen uint64) {
	h := scHash(key)
	s := sc.shards[h&sc.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc.gen.Load() != gen {
		// A write landed since this value was read; it may be stale.
		return
	}
	e := s.find(h, key)
	if e != nil {
		s.touch(e)
	} else {
		if s.n >= s.capacity {
			e = s.evict()
		} else {
			e = new(scEntry)
			s.n++
		}
		e.hash = h
		e.key = recycle(e.key, key)
		e.chain = s.index[h]
		s.index[h] = e
		s.pushFront(e)
	}
	e.val = recycle(e.val, val)
	e.present = present
	e.seq = seq
}

// applyBatch write-throughs a committed batch: entries for keys the batch
// touches are updated in place (or marked absent for deletes) with the
// record's commit sequence, keeping hot keys warm across writes. Keys not
// already cached are left alone — a write is not evidence of read heat.
// Must be called with db.mu held, before lastSeq is advanced past the
// batch, so no reader can pair the new sequence with a stale entry. The
// generation bump comes first so racing inserts of now-stale reads abort.
func (sc *stateCache) applyBatch(b *Batch) {
	sc.gen.Add(1)
	seq := b.startSeq
	_ = b.ForEach(func(kind byte, key, value []byte) error {
		h := scHash(key)
		s := sc.shards[h&sc.mask]
		s.mu.Lock()
		if e := s.find(h, key); e != nil {
			if kind == byte(kindSet) {
				e.val = recycle(e.val, value)
				e.present = true
			} else {
				e.val = e.val[:0]
				e.present = false
			}
			e.seq = seq
		}
		s.mu.Unlock()
		seq++
		return nil
	})
}

// stats returns cumulative hit/miss counts.
func (sc *stateCache) stats() (hits, misses uint64) {
	return sc.hits.Load(), sc.misses.Load()
}
