// Package cache implements LambdaStore's consistent function-result cache
// (paper §4.2.2). For a deterministic read-only method, the storage node
// records the method's output together with a hash of its input and its
// read set (keys and hashes of their values). A later identical invocation
// is answered from the cache only after re-validating every read dependency
// against the current committed state — which the node can do cheaply and
// consistently precisely because data and compute are co-located. Commits
// to an object additionally invalidate its entries proactively.
//
// The runtime's read set is one dependency: the object's version key, as
// read by the invocation's own snapshot. A method may only touch its own
// object's data, and every batch that changes an object's keys rewrites its
// version key in the same batch (core's TestEveryCommitPathMovesTheVersion),
// so the version stands for everything the method read. StoreAt keeps only
// that version's hash, and LookupAt validates it through the version key the
// caller passes in. The one thing a version cannot tell apart is an object
// deleted and re-created up to the same count; LookupAt/StoreAt close that by
// dropping a result whose execution an invalidation overtook. Store and
// Lookup validate a general read set of any length.
//
// The cache is sharded by object ID: every entry for an object lives in
// exactly one shard, so InvalidateObject touches a single shard lock and
// concurrent readers of different objects never contend.
package cache

import (
	"hash/fnv"
	"math/bits"
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

// HashArgs fingerprints an invocation's method and arguments (the "hash of
// its input"). It is the cache's key within an object: the method name is
// not kept beside it.
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

// none is the slot number that links nothing.
const none = -1

// minSlab is the slot count a shard's first store allocates.
const minSlab = 8

// resultRetainMax bounds, in bytes, the emptied result buffer a removed
// slot keeps for the next store; a larger one is dropped. It matches the
// runtime's bound on a pooled guest's staging buffers.
const resultRetainMax = 16 << 10

// entry is one cached result, a slot of its shard's slab. It links to other
// slots by number, so the slab holds no pointer but the result buffer, and a
// store at capacity allocates nothing: it reuses the slot it evicts, or one
// an invalidation, a failed validation or a replace put on the free list,
// and copies the result into the buffer that slot kept when it fits.
// Because the next store rewrites a removed slot, and a store may move the
// slab, every field is read and written only under the shard lock.
type entry struct {
	// result is the slot's own buffer: the cached bytes while the slot is
	// live, emptied (at most resultRetainMax of capacity) while it is free.
	result   []byte
	object   uint64
	argsHash uint64
	// version is the hash of the object's version that a StoreAt result was
	// computed on; versioned marks such an entry. A Store entry's read set
	// is its slot of the shard's readSets instead.
	version uint64
	// prev and next link the shard's LRU ring, or the free list (next only);
	// objNext the next entry of the same object, in the chain the index
	// heads.
	prev, next, objNext int32
	versioned           bool
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
	mu sync.Mutex
	// slab holds the shard's live and free entries. It grows with occupancy
	// and never past capacity, so live and free together stay within it.
	slab []entry
	// index is open-addressed by object, linear probing, with a power-of-two
	// length at least twice the slab's capacity: each object's slot holds 1 +
	// the slot of its newest entry, the head of its chain, and 0 is empty.
	// Deletion shifts the probe run back, so it leaves no tombstones.
	index []int32
	// readSets holds each Store entry's read set by slot; nil until the
	// first Store that has one.
	readSets [][]ReadDep
	// head is the most recent entry; its prev is the next victim. free heads
	// the removed entries the next stores reuse, linked through next.
	head, free     int32
	live, capacity int32
	// epoch counts InvalidateObject calls on this shard, whether or not they
	// found an entry: StoreAt compares it with the value LookupAt's miss saw.
	epoch uint64
	stats Stats
}

// Cache is a bounded, LRU-evicting consistent result cache. Safe for
// concurrent use.
type Cache struct {
	shards []shard
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
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	per := max(capacity/n, 1)
	for i := range c.shards {
		s := &c.shards[i]
		s.head, s.free, s.capacity = none, none, int32(per)
	}
	reg.GaugeFunc("cache.entries", func() int64 { return int64(c.Len()) })
	reg.GaugeFunc("cache.validations", func() int64 { return int64(c.Stats().Validations) })
	reg.GaugeFunc("cache.evictions", func() int64 { return int64(c.Stats().Evictions) })
	reg.GaugeFunc("cache.bypass", func() int64 { return int64(c.Stats().Bypass) })
	reg.GaugeFunc("cache.invalidations", func() int64 { return int64(c.Stats().Invalidations) })
	return c
}

// fib is 2^64 divided by the golden ratio. Multiplying by it (Fibonacci
// hashing) spreads the sequential IDs the runtime allocates evenly: the
// shard takes bits 33 and up of the product, a shard's index its top bits.
const fib = 0x9e3779b97f4a7c15

// shardFor hashes the object ID to its shard.
func (c *Cache) shardFor(object uint64) *shard {
	return &c.shards[(object*fib)>>33&c.mask]
}

// Lookup finds a cached result for (object, argsHash) and validates its
// read set with readHash, which must return the fingerprint of the named
// key's current committed value. It returns (a fresh copy of the result,
// true) only if every dependency still matches; stale entries are dropped.
// method is already part of argsHash (HashArgs) and is not looked at. An
// entry StoreAt made never validates here: Lookup has no version key to
// read.
func (c *Cache) Lookup(object uint64, method string, argsHash uint64, readHash func(key []byte) uint64) ([]byte, bool) {
	var dst []byte
	result, _, hit := c.LookupAt(&dst, object, argsHash, nil, func(key []byte) (uint64, bool) { return readHash(key), true })
	return result, hit
}

// LookupAt is Lookup for a caller that executes on a miss and stores what it
// computed with StoreAt. A hit's bytes are appended to *dst, which is left
// grown to hold them, and returned as that tail; a miss leaves *dst as it
// was. version is the object's version key: an entry StoreAt made
// validates when readHash(version) still gives the hash it was stored with,
// and a Store entry through its read set. readHash reports ok=false when it
// could not read the key, which is a mismatch: a failed read never
// validates an entry. On a miss, epoch is the shard's invalidation count,
// taken before the caller can have pinned the snapshot it will execute on;
// StoreAt takes it back.
//
// Validation and the hit's copy run under the shard lock, since the next
// store may reuse a removed slot and its buffer: no caller ever holds
// memory of the cache's. Lock order: readHash (the runtime's committedHash)
// takes the store's mutex briefly, and nothing calls into the cache while
// it holds that mutex — a commit invalidates after its write returns — so
// a shard lock is always taken first.
func (c *Cache) LookupAt(dst *[]byte, object, argsHash uint64, version []byte, readHash func(key []byte) (hash uint64, ok bool)) (result []byte, epoch uint64, hit bool) {
	s := c.shardFor(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.lookup(object, argsHash)
	if i == none {
		s.stats.Misses++
		return nil, s.epoch, false
	}
	if !s.valid(i, version, readHash) {
		s.stats.Validations++
		s.release(i)
		return nil, s.epoch, false
	}
	if i != s.head {
		s.unlinkLRU(i)
		s.pushFront(i)
	}
	s.stats.Hits++
	start := len(*dst)
	*dst = append(*dst, s.slab[i].result...)
	return (*dst)[start:], 0, true
}

// valid re-validates slot i's dependency. Caller holds s.mu.
func (s *shard) valid(i int32, version []byte, readHash func(key []byte) (uint64, bool)) bool {
	if e := &s.slab[i]; e.versioned {
		if version == nil {
			return false
		}
		h, ok := readHash(version)
		return ok && h == e.version
	}
	if s.readSets == nil {
		return true
	}
	for _, dep := range s.readSets[i] {
		if h, ok := readHash(dep.Key); !ok || h != dep.ValueHash {
			return false
		}
	}
	return true
}

// Store records a validated result with its read set. Both are copied, so
// the caller may reuse their memory at once. method is already part of
// argsHash (HashArgs) and is not kept.
func (c *Cache) Store(object uint64, method string, argsHash uint64, result []byte, readSet []ReadDep) {
	c.store(object, argsHash, result, readSet, false, 0, 0)
}

// StoreAt records a copy of a result computed on the object's version whose
// hash is versionHash, which LookupAt checks against its version key. It
// stores nothing if an InvalidateObject has reached the object's shard
// since the LookupAt miss that returned epoch: the result was then computed
// on a snapshot some commit may have overtaken, and a version that went 3 →
// deleted → re-created → 3 in the meantime would validate it. Dropping is
// always safe (the next lookup misses and re-executes).
func (c *Cache) StoreAt(object, argsHash uint64, result []byte, versionHash, epoch uint64) {
	c.store(object, argsHash, result, nil, true, versionHash, epoch)
}

// store is Store, or with at StoreAt.
func (c *Cache) store(object, argsHash uint64, result []byte, readSet []ReadDep, at bool, versionHash, epoch uint64) {
	s := c.shardFor(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	if at && epoch != s.epoch {
		return
	}
	i := s.lookup(object, argsHash)
	if i != none {
		// A replace keeps the slot and its place in the object's chain.
		s.unlinkLRU(i)
	} else {
		i = s.take()
		pos, head := s.find(object)
		s.slab[i].object, s.slab[i].argsHash, s.slab[i].objNext = object, argsHash, head
		s.index[pos] = i + 1
		s.live++
	}
	e := &s.slab[i]
	// The slot's buffer is reused whenever the result fits; a new one is
	// sized by the result alone, not doubled from the old.
	buf := e.result[:0]
	if cap(buf) < len(result) {
		buf = nil
	}
	e.result = append(buf, result...)
	e.versioned, e.version = at, versionHash
	if s.readSets != nil || len(readSet) > 0 {
		s.setReadSet(i, readSet)
	}
	s.pushFront(i)
	s.stats.Stores++
}

// setReadSet gives slot i a copy of deps in one slice and one slab of keys,
// or none when deps is empty. Caller holds s.mu.
func (s *shard) setReadSet(i int32, deps []ReadDep) {
	if s.readSets == nil {
		s.readSets = make([][]ReadDep, len(s.slab), cap(s.slab))
	}
	if len(deps) == 0 {
		s.readSets[i] = nil
		return
	}
	n := 0
	for _, d := range deps {
		n += len(d.Key)
	}
	keys := make([]byte, 0, n)
	out := make([]ReadDep, len(deps))
	for j, d := range deps {
		keys = append(keys, d.Key...)
		out[j] = ReadDep{Key: keys[len(keys)-len(d.Key) : len(keys) : len(keys)], ValueHash: d.ValueHash}
	}
	s.readSets[i] = out
}

// take returns an unlinked slot for a store: the free list's first, else a
// new one while the slab is below capacity, else the evicted LRU victim's.
// An eviction may shift the index. Caller holds s.mu.
func (s *shard) take() int32 {
	if s.free == none {
		if n := len(s.slab); n < int(s.capacity) {
			if n == cap(s.slab) {
				s.grow()
			}
			s.slab = s.slab[:n+1]
			if s.readSets != nil {
				s.readSets = s.readSets[:n+1]
			}
			return int32(n)
		}
		s.release(s.slab[s.head].prev)
		s.stats.Evictions++
	}
	i := s.free
	s.free = s.slab[i].next
	return i
}

// grow doubles the slab's capacity, up to the shard's, and keeps the index
// at least twice as long. Caller holds s.mu.
func (s *shard) grow() {
	n := min(max(2*cap(s.slab), minSlab), int(s.capacity))
	slab := make([]entry, len(s.slab), n)
	copy(slab, s.slab)
	s.slab = slab
	if s.readSets != nil {
		readSets := make([][]ReadDep, len(s.readSets), n)
		copy(readSets, s.readSets)
		s.readSets = readSets
	}
	if len(s.index) >= 2*n {
		return
	}
	old := s.index
	s.index = make([]int32, 1<<bits.Len(uint(2*n-1)))
	for _, v := range old {
		if v != 0 {
			pos, _ := s.find(s.slab[v-1].object)
			s.index[pos] = v
		}
	}
}

// find probes the index for object. It returns the object's position and
// the head of its chain, or the empty position where it would go and none.
// Caller holds s.mu.
func (s *shard) find(object uint64) (pos int, head int32) {
	if len(s.index) == 0 {
		return 0, none
	}
	mask := len(s.index) - 1
	for pos = s.home(object); ; pos = (pos + 1) & mask {
		v := s.index[pos]
		if v == 0 {
			return pos, none
		}
		if s.slab[v-1].object == object {
			return pos, v - 1
		}
	}
}

// home is object's first probe position: the top log2(len(index)) bits of
// its Fibonacci hash. Caller holds s.mu.
func (s *shard) home(object uint64) int {
	return int((object * fib) >> bits.LeadingZeros64(uint64(len(s.index)-1)))
}

// lookup returns the slot of (object, argsHash), or none. Caller holds s.mu.
func (s *shard) lookup(object, argsHash uint64) int32 {
	_, i := s.find(object)
	for i != none && s.slab[i].argsHash != argsHash {
		i = s.slab[i].objNext
	}
	return i
}

// unindex empties index position pos and shifts back the entries after it
// whose probe run crossed it, so no probe ever meets a hole it should have
// passed. Caller holds s.mu.
func (s *shard) unindex(pos int) {
	mask := len(s.index) - 1
	for next := (pos + 1) & mask; s.index[next] != 0; next = (next + 1) & mask {
		home := s.home(s.slab[s.index[next]-1].object)
		if (next-home)&mask >= (next-pos)&mask {
			s.index[pos], pos = s.index[next], next
		}
	}
	s.index[pos] = 0
}

// release removes a stored entry and puts its slot on the free list.
// Caller holds s.mu.
func (s *shard) release(i int32) {
	e := &s.slab[i]
	pos, head := s.find(e.object)
	switch {
	case head != i:
		p := head
		for s.slab[p].objNext != i {
			p = s.slab[p].objNext
		}
		s.slab[p].objNext = e.objNext
	case e.objNext != none:
		s.index[pos] = e.objNext + 1
	default:
		s.unindex(pos)
	}
	s.discard(i)
}

// discard takes slot i, already out of its chain, off the LRU ring and onto
// the free list. The slot keeps its result buffer, emptied, for the next
// store, unless it is larger than resultRetainMax. Caller holds s.mu.
func (s *shard) discard(i int32) {
	s.unlinkLRU(i)
	e := &s.slab[i]
	if cap(e.result) > resultRetainMax {
		e.result = nil
	}
	e.result, e.objNext, e.next = e.result[:0], none, s.free
	if s.readSets != nil {
		s.readSets[i] = nil
	}
	s.free = i
	s.live--
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
	pos, i := s.find(object)
	if i == none {
		return
	}
	s.unindex(pos)
	for i != none {
		next := s.slab[i].objNext
		s.discard(i)
		s.stats.Invalidations++
		i = next
	}
}

// NoteBypass records an invocation that skipped the cache entirely because
// its method is not cacheable, which is decided when its type is linked.
func (c *Cache) NoteBypass() {
	c.bypass.Add(1)
}

// pushFront makes slot i the shard's most recent entry. Caller holds s.mu.
func (s *shard) pushFront(i int32) {
	e := &s.slab[i]
	if s.head == none {
		e.prev, e.next = i, i
	} else {
		h := &s.slab[s.head]
		e.prev, e.next = h.prev, s.head
		s.slab[h.prev].next = i
		h.prev = i
	}
	s.head = i
}

// unlinkLRU takes slot i out of the LRU ring. Caller holds s.mu.
func (s *shard) unlinkLRU(i int32) {
	e := &s.slab[i]
	if e.next == i {
		s.head = none
	} else {
		s.slab[e.prev].next, s.slab[e.next].prev = e.next, e.prev
		if s.head == i {
			s.head = e.next
		}
	}
	e.prev, e.next = none, none
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += int(s.live)
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
	for i := range c.shards {
		s := &c.shards[i]
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
