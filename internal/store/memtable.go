package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sync"
)

// maxSkiplistHeight bounds tower height; 12 levels suffice for millions of
// entries at p=1/4.
const maxSkiplistHeight = 12

// An arena hands out node storage from pointer-free chunks, so a memtable
// is a handful of heap objects however many entries it holds and the
// garbage collector never traces it (LevelDB's arena, Pebble's arenaskl).
// A node is addressed by a ref: its chunk's index in the high 16 bits, its
// offset in the chunk in the low 16. Chunks are allocated on demand, the
// first ones small so that an idle or tiny memtable stays small; a node
// larger than a chunk gets a chunk of its own, at offset 0. Memory is never
// moved or handed out twice, so a slice of it stays valid, and — outside a
// tower — unchanged, for the arena's lifetime.
type arena struct {
	chunks   [][]byte
	used     int // bytes handed out of the last chunk
	reserved int // total bytes of all chunks
}

const (
	arenaMinChunkBytes = 4 << 10
	arenaMaxChunkBytes = 64 << 10
	arenaOffsetBits    = 16
	arenaMaxChunks     = 1 << (32 - arenaOffsetBits)
)

// errArenaFull reports an insert no ref can address. maxMemtableBytes makes
// rotation come long before; only a single batch of gigabytes gets here.
var errArenaFull = errors.New("store: memtable arena cannot address another entry")

// alloc returns n zeroed bytes and their ref.
func (a *arena) alloc(n int) (ref uint32, buf []byte, err error) {
	last := len(a.chunks) - 1
	if last < 0 || n > len(a.chunks[last])-a.used {
		if len(a.chunks) == arenaMaxChunks || n > math.MaxInt32 {
			return 0, nil, errArenaFull
		}
		// Double up to the fixed size: 4, 4, 8, 16, 32, 64, 64, ... KB.
		size := max(n, min(max(a.reserved, arenaMinChunkBytes), arenaMaxChunkBytes))
		a.chunks = append(a.chunks, make([]byte, size))
		a.reserved += size
		a.used = 0
		last++
	}
	off := a.used
	a.used += n
	return uint32(last)<<arenaOffsetBits | uint32(off), a.chunks[last][off:a.used:a.used], nil
}

// at returns the memory from ref to the end of its chunk.
func (a *arena) at(ref uint32) []byte {
	return a.chunks[ref>>arenaOffsetBits][ref&(1<<arenaOffsetBits-1):]
}

// A skiplist node in the arena:
//
//	height byte | keyLen uint32 | valueLen uint32 | height × next ref | internal key | value
//
// Keys are internal keys so multiple versions of the same user key coexist,
// newest first. Ref 0 is the head node, which nothing links to, so 0 also
// ends a list.
type arenaNode []byte

const nodeHeaderBytes = 1 + 4 + 4

func (n arenaNode) next(level int) uint32 {
	return binary.LittleEndian.Uint32(n[nodeHeaderBytes+4*level:])
}

func (n arenaNode) setNext(level int, ref uint32) {
	binary.LittleEndian.PutUint32(n[nodeHeaderBytes+4*level:], ref)
}

func (n arenaNode) key() internalKey {
	off := nodeHeaderBytes + 4*int(n[0])
	end := off + int(binary.LittleEndian.Uint32(n[1:]))
	return internalKey(n[off:end:end])
}

func (n arenaNode) value() []byte {
	off := nodeHeaderBytes + 4*int(n[0]) + int(binary.LittleEndian.Uint32(n[1:]))
	end := off + int(binary.LittleEndian.Uint32(n[5:]))
	return n[off:end:end]
}

// memtable is an ordered in-memory buffer of recent writes. It is the first
// stop of the read path and is flushed to an L0 SSTable when full.
//
// A RWMutex guards the list: writers are serialized by the DB anyway, and
// readers take the shared lock to walk towers and the chunk table. The keys
// and values they come away with are immutable and need no lock.
type memtable struct {
	mu     sync.RWMutex
	arena  arena
	height int
	rnd    uint32 // xorshift state of randomHeight
	count  int
	// last is the node add linked last (the head before the first), and
	// finger[l] its predecessor at every level l it does not reach — last
	// itself at those it does. A key that sorts between last and its level-0
	// successor has finger[l] as its predecessor at every level l, so keys
	// that arrive in order link with no search from the head (Pebble's
	// Inserter splice).
	last   uint32
	finger [maxSkiplistHeight]uint32
}

// newMemtable returns an empty memtable.
func newMemtable() *memtable {
	m := &memtable{height: 1, rnd: 0xda7a}
	// The head: a full tower, no key. First in the arena, so its ref is 0.
	_, head, _ := m.arena.alloc(nodeHeaderBytes + 4*maxSkiplistHeight)
	head[0] = maxSkiplistHeight
	return m
}

// approximateBytes returns the memory the memtable has reserved: every
// arena chunk in full, which is what memtableBytes bounds.
func (m *memtable) approximateBytes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.arena.reserved
}

// len returns the number of entries.
func (m *memtable) len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

func (m *memtable) randomHeight() int {
	h := 1
	for h < maxSkiplistHeight {
		m.rnd ^= m.rnd << 13
		m.rnd ^= m.rnd >> 17
		m.rnd ^= m.rnd << 5
		if m.rnd&3 != 0 {
			break
		}
		h++
	}
	return h
}

// add inserts an entry, copying userKey and value into the arena: the one
// copy between an encoded batch and a reader. The key (including trailer)
// must be unique, which the DB guarantees by assigning a fresh sequence
// number to every write.
func (m *memtable) add(seq uint64, kind keyKind, userKey, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	h := m.randomHeight()
	keyLen := len(userKey) + 8
	ref, buf, err := m.arena.alloc(nodeHeaderBytes + 4*h + keyLen + len(value))
	if err != nil {
		return err
	}
	n := arenaNode(buf)
	n[0] = byte(h)
	binary.LittleEndian.PutUint32(n[1:], uint32(keyLen))
	binary.LittleEndian.PutUint32(n[5:], uint32(len(value)))
	ik := n.key()
	copy(ik, userKey)
	binary.BigEndian.PutUint64(ik[len(userKey):], seq<<8|uint64(kind))
	copy(n.value(), value)

	prev := m.finger
	if !m.follows(ik) {
		x := uint32(0)
		for level := maxSkiplistHeight - 1; level >= 0; level-- {
			if level < m.height {
				x = m.seekLT(x, level, ik)
			}
			prev[level] = x
		}
	}
	m.height = max(m.height, h)
	for level := 0; level < h; level++ {
		p := arenaNode(m.arena.at(prev[level]))
		n.setNext(level, p.next(level))
		p.setNext(level, ref)
		prev[level] = ref
	}
	m.last, m.finger = ref, prev
	m.count++
	return nil
}

// follows reports whether ik sorts between the node add linked last and
// that node's level-0 successor, where the fingers are its predecessors.
func (m *memtable) follows(ik internalKey) bool {
	last := arenaNode(m.arena.at(m.last))
	if m.last != 0 && compareInternal(last.key(), ik) >= 0 {
		return false
	}
	next := last.next(0)
	return next == 0 || compareInternal(ik, arenaNode(m.arena.at(next)).key()) < 0
}

// seekLT advances from node x along one level to the last node whose key
// is < ik and returns its ref.
func (m *memtable) seekLT(x uint32, level int, ik internalKey) uint32 {
	n := arenaNode(m.arena.at(x))
	for {
		ref := n.next(level)
		if ref == 0 {
			return x
		}
		next := arenaNode(m.arena.at(ref))
		if compareInternal(next.key(), ik) >= 0 {
			return x
		}
		x, n = ref, next
	}
}

// findGE returns the first node whose key is >= ik in internal-key order,
// nil if there is none. Called with mu held.
func (m *memtable) findGE(ik internalKey) arenaNode {
	x := uint32(0)
	for level := m.height - 1; level >= 0; level-- {
		x = m.seekLT(x, level, ik)
	}
	return m.successor(m.arena.at(x))
}

// successor returns the node after n in key order, nil at the end. Called
// with mu held.
func (m *memtable) successor(n arenaNode) arenaNode {
	ref := n.next(0)
	if ref == 0 {
		return nil
	}
	return m.arena.at(ref)
}

// get resolves a lookup key (user key, snapshot seq, kindSeek): it returns
// the newest version of the user key visible at that sequence — its value,
// aliasing the arena, and its kind — or ok=false when this memtable holds
// none.
func (m *memtable) get(lookup internalKey) (value []byte, kind keyKind, ok bool) {
	m.mu.RLock()
	n := m.findGE(lookup)
	m.mu.RUnlock()
	if n == nil {
		return nil, 0, false
	}
	ik := n.key()
	if !bytes.Equal(ik.userKey(), lookup.userKey()) {
		return nil, 0, false
	}
	return n.value(), ik.kind(), true
}

// iterator returns an iterator over the memtable's internal keys. The
// iterator holds no lock; it re-acquires the read lock per movement, which
// is safe because nodes are never removed and only their towers change
// once linked.
func (m *memtable) iterator() internalIterator {
	return &memtableIter{m: m}
}

// memtableIter walks the level-0 linked list of the skiplist.
type memtableIter struct {
	m    *memtable
	node arenaNode
}

func (it *memtableIter) SeekGE(ik internalKey) {
	it.m.mu.RLock()
	it.node = it.m.findGE(ik)
	it.m.mu.RUnlock()
}

func (it *memtableIter) SeekToFirst() {
	it.m.mu.RLock()
	it.node = it.m.successor(it.m.arena.at(0))
	it.m.mu.RUnlock()
}

func (it *memtableIter) Next() {
	if it.node == nil {
		return
	}
	it.m.mu.RLock()
	it.node = it.m.successor(it.node)
	it.m.mu.RUnlock()
}

func (it *memtableIter) Valid() bool { return it.node != nil }

func (it *memtableIter) Key() internalKey {
	if it.node == nil {
		return nil
	}
	return it.node.key()
}

func (it *memtableIter) Value() []byte {
	if it.node == nil {
		return nil
	}
	return it.node.value()
}

func (it *memtableIter) Error() error { return nil }

func (it *memtableIter) Close() error { return nil }
