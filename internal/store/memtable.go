package store

import (
	"bytes"
	"math/rand"
	"sync"
)

// maxSkiplistHeight bounds tower height; 12 levels suffice for millions of
// entries at p=1/4.
const maxSkiplistHeight = 12

// skipNode is one entry in the memtable skiplist. Keys are internal keys so
// multiple versions of the same user key coexist, newest first.
type skipNode struct {
	key   internalKey
	value []byte
	next  []*skipNode
}

// memtable is an ordered in-memory buffer of recent writes. It is the first
// stop of the read path and is flushed to an L0 SSTable when full.
//
// A RWMutex guards the list: writers are serialized by the DB anyway, and
// readers take the shared lock. This trades a little parallel-read
// throughput for simplicity compared to LevelDB's lock-free arena skiplist.
type memtable struct {
	mu     sync.RWMutex
	head   *skipNode
	height int
	rng    *rand.Rand
	bytes  int
	count  int
}

// newMemtable returns an empty memtable.
func newMemtable() *memtable {
	return &memtable{
		head:   &skipNode{next: make([]*skipNode, maxSkiplistHeight)},
		height: 1,
		rng:    rand.New(rand.NewSource(0xda7a)),
	}
}

// approximateBytes returns the memory consumed by keys and values.
func (m *memtable) approximateBytes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// len returns the number of entries.
func (m *memtable) len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

func (m *memtable) randomHeight() int {
	h := 1
	for h < maxSkiplistHeight && m.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// add inserts an entry. The key (including trailer) must be unique, which
// the DB guarantees by assigning a fresh sequence number to every write.
func (m *memtable) add(seq uint64, kind keyKind, userKey, value []byte) {
	ik := makeInternalKey(nil, userKey, seq, kind)
	m.mu.Lock()
	defer m.mu.Unlock()

	var prev [maxSkiplistHeight]*skipNode
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && compareInternal(x.next[level].key, ik) < 0 {
			x = x.next[level]
		}
		prev[level] = x
	}

	h := m.randomHeight()
	if h > m.height {
		for level := m.height; level < h; level++ {
			prev[level] = m.head
		}
		m.height = h
	}

	n := &skipNode{key: ik, value: value, next: make([]*skipNode, h)}
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	m.bytes += len(ik) + len(value) + 48
	m.count++
}

// findGE returns the first node whose key is >= ik in internal-key order.
func (m *memtable) findGE(ik internalKey) *skipNode {
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && compareInternal(x.next[level].key, ik) < 0 {
			x = x.next[level]
		}
	}
	return x.next[0]
}

// get resolves a lookup key (user key, snapshot seq, kindSeek): it returns
// the newest version of the user key visible at that sequence — its value,
// aliasing the immutable node, and its kind — or ok=false when this
// memtable holds none.
func (m *memtable) get(lookup internalKey) (value []byte, kind keyKind, ok bool) {
	m.mu.RLock()
	n := m.findGE(lookup)
	m.mu.RUnlock()
	if n == nil || !bytes.Equal(n.key.userKey(), lookup.userKey()) {
		return nil, 0, false
	}
	return n.value, n.key.kind(), true
}

// iterator returns an iterator over the memtable's internal keys. The
// iterator holds no lock; it re-acquires the read lock per movement, which
// is safe because skiplist nodes are never removed or mutated once linked.
func (m *memtable) iterator() internalIterator {
	return &memtableIter{m: m}
}

// memtableIter walks the level-0 linked list of the skiplist.
type memtableIter struct {
	m    *memtable
	node *skipNode
}

func (it *memtableIter) SeekGE(ik internalKey) {
	it.m.mu.RLock()
	it.node = it.m.findGE(ik)
	it.m.mu.RUnlock()
}

func (it *memtableIter) SeekToFirst() {
	it.m.mu.RLock()
	it.node = it.m.head.next[0]
	it.m.mu.RUnlock()
}

func (it *memtableIter) Next() {
	if it.node == nil {
		return
	}
	it.m.mu.RLock()
	it.node = it.node.next[0]
	it.m.mu.RUnlock()
}

func (it *memtableIter) Valid() bool { return it.node != nil }

func (it *memtableIter) Key() internalKey {
	if it.node == nil {
		return nil
	}
	return it.node.key
}

func (it *memtableIter) Value() []byte {
	if it.node == nil {
		return nil
	}
	return it.node.value
}

func (it *memtableIter) Error() error { return nil }

func (it *memtableIter) Close() error { return nil }
