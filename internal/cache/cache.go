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

// inlineKey is the longest read-set key an entry keeps inside itself. The
// runtime's one dependency, an object's version key, fits.
const inlineKey = 24

// entry is one cached result. Its LRU and per-object links are its own
// fields, and a one-dependency read set whose key fits inlineKey lives in dep
// and depKey, so a store at capacity allocates nothing: it reuses the entry
// it evicts, or one an invalidation, a failed validation or a same-key
// replace put on the shard's free list. Because the next store rewrites a
// removed entry, every field is read and written only under the shard lock.
type entry struct {
	result  []byte
	readSet []ReadDep

	key entryKey
	// prev and next link the shard's LRU ring, or the free list (next only);
	// objPrev and objNext the entries of one object, headed by the shard's
	// byObject.
	prev, next       *entry
	objPrev, objNext *entry
	dep              [1]ReadDep
	depKey           [inlineKey]byte
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
	// Bypass counts invocations of methods that are not cacheable: their
	// module can reach a write, a nested call, the clock or randomness.
	// Scans are covered by the version read set and bypass nothing.
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
	entries  map[entryKey]*entry
	byObject map[uint64]*entry // the first of each object's entries
	lru      entry             // ring sentinel: lru.next is the most recent entry, lru.prev the next victim
	// free heads the removed entries the next stores reuse, linked through
	// next. Live and free entries together never exceed capacity.
	free     *entry
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
		s := &shard{
			entries:  make(map[entryKey]*entry),
			byObject: make(map[uint64]*entry),
			capacity: per,
		}
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		c.shards[i] = s
	}
	reg.GaugeFunc("cache.entries", func() int64 { return int64(c.Len()) })
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
//
// Validation runs under the shard lock, since the next store may reuse a
// removed entry's read set. Lock order: readHash (the runtime's
// committedHash) takes the store's mutex briefly, and nothing calls into the
// cache while it holds that mutex — a commit invalidates after its write
// returns — so a shard lock is always taken first.
func (c *Cache) LookupAt(object uint64, method string, argsHash uint64, readHash func(key []byte) (hash uint64, ok bool)) (result []byte, epoch uint64, hit bool) {
	s := c.shardFor(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[entryKey{object: object, method: method, argsHash: argsHash}]
	if !ok {
		s.stats.Misses++
		return nil, s.epoch, false
	}
	for _, dep := range e.readSet {
		if h, ok := readHash(dep.Key); !ok || h != dep.ValueHash {
			s.stats.Validations++
			s.release(e)
			return nil, s.epoch, false
		}
	}
	s.unlinkLRU(e)
	s.pushFront(e)
	s.stats.Hits++
	return e.result, 0, true
}

// Store records a validated result with its read set. The cache keeps
// result itself: the caller hands it over and must not modify it afterwards,
// and every hit returns it. The read set is copied.
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
	s := c.shardFor(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	if atEpoch && epoch != s.epoch {
		return
	}
	if old, ok := s.entries[k]; ok {
		s.release(old)
	}
	e := s.take()
	// The capacity is clipped so that no holder of the result can append
	// into bytes another holder sees.
	e.result, e.key = result[:len(result):len(result)], k
	e.readSet = e.copyReadSet(readSet)
	s.entries[k] = e
	s.pushFront(e)
	if head := s.byObject[object]; head != nil {
		head.objPrev, e.objNext = e, head
	}
	s.byObject[object] = e
	s.stats.Stores++
}

// take returns an unlinked entry for a store: the free list's first, else,
// at capacity, the evicted LRU victim, else a new one. Caller holds s.mu.
func (s *shard) take() *entry {
	if e := s.free; e != nil {
		s.free, e.next = e.next, nil
		return e
	}
	if len(s.entries) >= s.capacity {
		e := s.lru.prev
		s.removeLocked(e)
		s.stats.Evictions++
		return e
	}
	return new(entry)
}

// release removes a stored entry and puts it on the free list, dropping
// what it referenced. Caller holds s.mu.
func (s *shard) release(e *entry) {
	s.removeLocked(e)
	e.result, e.readSet, e.key = nil, nil, entryKey{}
	e.next, s.free = s.free, e
}

// copyReadSet copies deps into storage e owns: inside e when it is one
// dependency with a short key (the runtime's version key), else one slice
// and one slab of keys.
func (e *entry) copyReadSet(deps []ReadDep) []ReadDep {
	switch {
	case len(deps) == 0:
		return nil
	case len(deps) == 1 && len(deps[0].Key) <= inlineKey:
		n := copy(e.depKey[:], deps[0].Key)
		e.dep[0] = ReadDep{Key: e.depKey[:n:n], ValueHash: deps[0].ValueHash}
		return e.dep[:]
	}
	n := 0
	for _, d := range deps {
		n += len(d.Key)
	}
	keys := make([]byte, 0, n)
	out := make([]ReadDep, len(deps))
	for i, d := range deps {
		keys = append(keys, d.Key...)
		out[i] = ReadDep{Key: keys[len(keys)-len(d.Key) : len(keys) : len(keys)], ValueHash: d.ValueHash}
	}
	return out
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
	for e := s.byObject[object]; e != nil; e = s.byObject[object] {
		s.release(e)
		s.stats.Invalidations++
	}
}

// NoteBypass records an invocation that skipped the cache entirely because
// its method is not cacheable, which is decided when its type is linked.
func (c *Cache) NoteBypass() {
	c.bypass.Add(1)
}

// pushFront makes e the shard's most recent entry. Caller holds s.mu.
func (s *shard) pushFront(e *entry) {
	e.prev, e.next = &s.lru, s.lru.next
	s.lru.next.prev = e
	s.lru.next = e
}

// unlinkLRU takes e out of the LRU ring. Caller holds s.mu.
func (s *shard) unlinkLRU(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// removeLocked unlinks a stored entry from all indexes. Caller holds s.mu.
func (s *shard) removeLocked(e *entry) {
	delete(s.entries, e.key)
	s.unlinkLRU(e)
	switch {
	case e.objPrev != nil:
		e.objPrev.objNext = e.objNext
	case e.objNext != nil:
		s.byObject[e.key.object] = e.objNext
	default:
		delete(s.byObject, e.key.object)
	}
	if e.objNext != nil {
		e.objNext.objPrev = e.objPrev
	}
	e.objPrev, e.objNext = nil, nil
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
