// Package cache implements LambdaStore's consistent function-result cache
// (paper §4.2.2). For a deterministic read-only method, the storage node
// records the method's output together with a hash of its input and its
// read set (keys and hashes of their values). A later identical invocation
// is answered from the cache only after re-validating every read dependency
// against the current committed state — which the node can do cheaply and
// consistently precisely because data and compute are co-located. Commits
// to an object additionally invalidate its entries proactively.
//
// The package validates whatever read set it is handed. The runtime hands it
// one dependency: the object's version key, as read by the invocation's own
// snapshot. A method may only touch its own object's data, and every batch
// that changes an object's keys rewrites its version key in the same batch
// (core's TestEveryCommitPathMovesTheVersion), so the version stands for
// everything the method read. The one thing a version cannot tell apart is
// an object deleted and re-created up to the same count; LookupAt/StoreAt
// close that by dropping a result whose execution an invalidation overtook.
//
// The cache is sharded by object ID: every entry for an object lives in
// exactly one shard, so InvalidateObject touches a single shard lock and
// concurrent readers of different objects never contend.
package cache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"lambdastore/internal/telemetry"
)

// HashValue produces the value fingerprint stored in read sets. A presence
// bit is mixed in so "absent" and "present but empty" differ.
func HashValue(value []byte, present bool) uint64 {
	h := fnv.New64a()
	if present {
		h.Write([]byte{1})
		h.Write(value)
	} else {
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// HashArgs fingerprints an invocation's arguments (the "hash of its input").
func HashArgs(method string, args [][]byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(method))
	for _, a := range args {
		var lenBuf [8]byte
		n := len(a)
		for i := 0; i < 8; i++ {
			lenBuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenBuf[:])
		h.Write(a)
	}
	return h.Sum64()
}

// ReadDep is one entry of a cached invocation's read set.
type ReadDep struct {
	Key       []byte
	ValueHash uint64
}

// Entry is one cached result.
type Entry struct {
	Result  []byte
	ReadSet []ReadDep

	key     entryKey
	element *list.Element
}

// entryKey identifies a cached invocation.
type entryKey struct {
	object   uint64
	method   string
	argsHash uint64
}

// Stats counts cache outcomes for the benchmark harness and /metrics.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Validations uint64 // entries found but re-validated away
	Stores      uint64
	Evictions   uint64
	// Bypass counts invocations that were not cache-eligible (mutating,
	// non-deterministic, or poisoned by time/rand/scans mid-run).
	Bypass uint64
	// Invalidations counts entries dropped by proactive InvalidateObject.
	Invalidations uint64
}

// DefaultShards is the shard count used by New. 32 comfortably exceeds the
// core counts this runs on while keeping per-shard LRU lists long enough to
// stay useful.
const DefaultShards = 32

// shard is one lock-striped partition of the cache. All entries for a given
// object hash to the same shard, which is what keeps InvalidateObject a
// single-lock operation.
type shard struct {
	mu       sync.Mutex
	entries  map[entryKey]*Entry
	byObject map[uint64]map[entryKey]struct{}
	lru      *list.List // front = most recent
	capacity int
	stats    Stats
	// epoch counts InvalidateObject calls on this shard, whether or not they
	// found an entry: StoreAt compares it with the value LookupAt's miss saw.
	epoch uint64
}

// Cache is a bounded, LRU-evicting consistent result cache. Safe for
// concurrent use.
type Cache struct {
	shards []*shard
	mask   uint64 // len(shards)-1; len is always a power of two
	bypass atomic.Uint64
}

// New returns a cache bounded to capacity entries (<=0 means 64k), split
// across DefaultShards shards.
func New(capacity int) *Cache {
	return NewSharded(capacity, DefaultShards, nil)
}

// NewSharded returns a cache with an explicit shard count (rounded up to a
// power of two; <=0 means DefaultShards), publishing its outcome counts in
// reg as sampled gauges (hits and misses are counted by the caller that
// knows whether a lookup was even eligible: core.cache_hits/_misses).
func NewSharded(capacity, shards int, reg *telemetry.Registry) *Cache {
	if capacity <= 0 {
		capacity = 64 << 10
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	// Tiny caches keep exact global LRU order: splitting a handful of slots
	// across shards would evict by shard occupancy, not recency. Cap the
	// shard count so each shard holds at least 16 entries.
	for n > 1 && capacity/n < 16 {
		n >>= 1
	}
	c := &Cache{shards: make([]*shard, n), mask: uint64(n - 1)}
	per := capacity / n
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries:  make(map[entryKey]*Entry),
			byObject: make(map[uint64]map[entryKey]struct{}),
			lru:      list.New(),
			capacity: per,
		}
	}
	reg.GaugeFunc("cache.validations", func() int64 { return int64(c.Stats().Validations) })
	reg.GaugeFunc("cache.evictions", func() int64 { return int64(c.Stats().Evictions) })
	reg.GaugeFunc("cache.bypass", func() int64 { return int64(c.Stats().Bypass) })
	reg.GaugeFunc("cache.invalidations", func() int64 { return int64(c.Stats().Invalidations) })
	return c
}

// shardFor hashes the object ID to its shard. Fibonacci hashing spreads the
// sequential IDs the runtime allocates evenly across shards.
func (c *Cache) shardFor(object uint64) *shard {
	return c.shards[(object*0x9e3779b97f4a7c15)>>33&c.mask]
}

// Lookup finds a cached result for (object, method, argsHash) and validates
// its read set with readHash, which must return the fingerprint of the
// named key's current committed value. It returns (result, true) only if
// every dependency still matches; stale entries are dropped.
func (c *Cache) Lookup(object uint64, method string, argsHash uint64, readHash func(key []byte) uint64) ([]byte, bool) {
	result, _, hit := c.LookupAt(object, method, argsHash, func(key []byte) (uint64, bool) { return readHash(key), true })
	return result, hit
}

// LookupAt is Lookup for a caller that executes on a miss and stores what it
// computed. readHash reports ok=false when it could not read the key, which
// is a mismatch: a failed read never validates an entry. On a miss, epoch is
// the shard's invalidation count, taken before the caller can have pinned
// the snapshot it will execute on; StoreAt takes it back.
func (c *Cache) LookupAt(object uint64, method string, argsHash uint64, readHash func(key []byte) (hash uint64, ok bool)) (result []byte, epoch uint64, hit bool) {
	k := entryKey{object: object, method: method, argsHash: argsHash}
	s := c.shardFor(object)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		epoch = s.epoch
		s.mu.Unlock()
		return nil, epoch, false
	}
	// Copy the read set out so validation runs without the lock (readHash
	// hits the storage engine).
	deps := e.ReadSet
	result = e.Result
	s.mu.Unlock()

	for _, dep := range deps {
		if h, ok := readHash(dep.Key); !ok || h != dep.ValueHash {
			s.mu.Lock()
			s.stats.Validations++
			s.removeLocked(k)
			epoch = s.epoch
			s.mu.Unlock()
			return nil, epoch, false
		}
	}
	s.mu.Lock()
	if cur, ok := s.entries[k]; ok {
		s.lru.MoveToFront(cur.element)
	}
	s.stats.Hits++
	s.mu.Unlock()
	return result, 0, true
}

// Store records a validated result with its read set.
func (c *Cache) Store(object uint64, method string, argsHash uint64, result []byte, readSet []ReadDep) {
	c.store(object, method, argsHash, result, readSet, false, 0)
}

// StoreAt is Store unless an InvalidateObject has reached the object's shard
// since the LookupAt miss that returned epoch: the result was then computed
// on a snapshot some commit may have overtaken, and a version that went
// 3 → deleted → re-created → 3 in the meantime would validate it. Dropping
// is always safe (the next lookup misses and re-executes).
func (c *Cache) StoreAt(object uint64, method string, argsHash uint64, result []byte, readSet []ReadDep, epoch uint64) {
	c.store(object, method, argsHash, result, readSet, true, epoch)
}

func (c *Cache) store(object uint64, method string, argsHash uint64, result []byte, readSet []ReadDep, atEpoch bool, epoch uint64) {
	k := entryKey{object: object, method: method, argsHash: argsHash}
	e := &Entry{
		Result:  append([]byte(nil), result...),
		ReadSet: readSet,
		key:     k,
	}
	s := c.shardFor(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	if atEpoch && epoch != s.epoch {
		return
	}
	if old, ok := s.entries[k]; ok {
		s.lru.Remove(old.element)
	}
	e.element = s.lru.PushFront(e)
	s.entries[k] = e
	objSet, ok := s.byObject[object]
	if !ok {
		objSet = make(map[entryKey]struct{})
		s.byObject[object] = objSet
	}
	objSet[k] = struct{}{}
	s.stats.Stores++

	for len(s.entries) > s.capacity {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.removeLocked(back.Value.(*Entry).key)
		s.stats.Evictions++
	}
}

// InvalidateObject drops every entry whose invocation ran against object,
// and any result still being computed for the shard (see StoreAt). Called
// after each commit to the object; read-set validation also catches
// staleness, so for stored entries this is a proactive fast path. All of an
// object's entries share a shard, so one lock covers the whole invalidation.
func (c *Cache) InvalidateObject(object uint64) {
	s := c.shardFor(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	for k := range s.byObject[object] {
		s.removeLocked(k)
		s.stats.Invalidations++
	}
}

// NoteBypass records an invocation that skipped the cache entirely
// (mutating method, non-deterministic method, or nocache-poisoned run).
func (c *Cache) NoteBypass() {
	c.bypass.Add(1)
}

// removeLocked unlinks an entry from all indexes. Caller holds s.mu.
func (s *shard) removeLocked(k entryKey) {
	e, ok := s.entries[k]
	if !ok {
		return
	}
	delete(s.entries, k)
	s.lru.Remove(e.element)
	if objSet, ok := s.byObject[k.object]; ok {
		delete(objSet, k)
		if len(objSet) == 0 {
			delete(s.byObject, k.object)
		}
	}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a merged snapshot of the per-shard counters. Shards are
// sampled one at a time — the merge never holds more than one shard lock,
// so a stats scrape cannot stall the whole cache. The snapshot is therefore
// not a single atomic cut, which is fine for monitoring counters.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st := s.stats
		s.mu.Unlock()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Validations += st.Validations
		out.Stores += st.Stores
		out.Evictions += st.Evictions
		out.Invalidations += st.Invalidations
	}
	out.Bypass = c.bypass.Load()
	return out
}
