package store

import (
	"encoding/binary"
	"fmt"

	"lambdastore/internal/wire"
)

// Blocks are the unit of storage inside SSTables. Entries are stored in
// internal-key order with shared-prefix compression; every
// restartInterval-th entry is written uncompressed (a "restart point") so
// readers can binary-search restart points and then scan at most one
// interval.
//
// Block layout:
//
//	entry*:   uvarint shared | uvarint unshared | uvarint valueLen
//	          | unshared key bytes | value bytes
//	restarts: uint32 offset * numRestarts | uint32 numRestarts
//	trailer:  uint32 crc32c(everything above)

// dataRestartInterval is the restart interval of data blocks (index blocks
// restart at every entry, so a seek lands on the entry itself).
const dataRestartInterval = 16

// blockBuilder accumulates entries for one block.
type blockBuilder struct {
	restartInterval int
	buf             []byte
	restarts        []uint32
	counter         int
	lastKey         []byte
}

func newBlockBuilder(restartInterval int) *blockBuilder {
	return &blockBuilder{restartInterval: restartInterval}
}

// add appends an entry; keys must arrive in ascending internal-key order.
func (b *blockBuilder) add(key internalKey, value []byte) {
	shared := 0
	if b.counter%b.restartInterval == 0 {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
	} else {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	}
	b.buf = wire.AppendUvarint(b.buf, uint64(shared))
	b.buf = wire.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = wire.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
}

// empty reports whether the builder holds no entries.
func (b *blockBuilder) empty() bool { return b.counter == 0 }

// sizeEstimate returns the finished block size so far.
func (b *blockBuilder) sizeEstimate() int {
	return len(b.buf) + 4*len(b.restarts) + 8
}

// finish seals the block and returns its bytes (without trailer CRC, which
// the table writer adds per-block). They alias the builder's buffer: valid
// until its next reset.
func (b *blockBuilder) finish() []byte {
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	for _, r := range b.restarts {
		b.buf = wire.AppendUint32(b.buf, r)
	}
	b.buf = wire.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// reset prepares the builder for the next block, keeping its buffer: the
// table writer has copied a finished block out before it resets.
func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.counter = 0
	b.lastKey = b.lastKey[:0]
}

// block is an immutable block ready for iteration: two views of the bytes
// it was parsed from, read in place.
type block struct {
	data     []byte // entries only
	restarts []byte // numRestarts little-endian uint32 entry offsets
}

// parseBlock splits a raw (CRC-stripped) block into its entries and its
// restart array, checking the restart count; check verifies the offsets.
func parseBlock(raw []byte) (block, error) {
	if len(raw) < 4 {
		return block{}, fmt.Errorf("%w: block shorter than restart count", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(raw[len(raw)-4:]))
	restartsLen := 4 * n
	if n <= 0 || restartsLen+4 > len(raw) {
		return block{}, fmt.Errorf("%w: block restart count %d invalid", ErrCorrupt, n)
	}
	dataLen := len(raw) - restartsLen - 4
	return block{data: raw[:dataLen], restarts: raw[dataLen : len(raw)-4]}, nil
}

func (b block) numRestarts() int { return len(b.restarts) / 4 }

// restart returns the offset of the i-th restart entry.
func (b block) restart(i int) int { return int(binary.LittleEndian.Uint32(b.restarts[4*i:])) }

// check verifies that every restart offset lies within the entries.
func (b block) check() error {
	for i := 0; i < b.numRestarts(); i++ {
		if b.restart(i) > len(b.data) {
			return fmt.Errorf("%w: restart offset beyond block data", ErrCorrupt)
		}
	}
	return nil
}

// blockIter iterates a block in internal-key order.
type blockIter struct {
	b      block
	offset int // offset of the current entry
	next   int // offset just past the current entry
	key    []byte
	value  []byte
	err    error
	valid  bool
}

func (b block) iterator() *blockIter { return &blockIter{b: b} }

// reset points the iterator at another block (the zero block to let go of
// the current one), keeping its key buffer.
func (it *blockIter) reset(b block) { *it = blockIter{b: b, key: it.key[:0]} }

// entry decodes the entry at off in place: its shared-prefix length, the
// key bytes it does not share, its value, and the offset just past it. When
// the three lengths are one-byte varints — in a block of small entries,
// all of them — they are read inline, with no Reader.
func (b block) entry(off int) (shared uint64, suffix, value []byte, next int, err error) {
	d := b.data[off:]
	shared, n0 := wire.Uvarint1(d)
	unshared, n1 := wire.Uvarint1(d[n0:])
	valueLen, n2 := wire.Uvarint1(d[n0+n1:])
	if n0 == 0 || n1 == 0 || n2 == 0 {
		r := wire.NewReader(d)
		shared, unshared, valueLen = r.Uvarint(), r.Uvarint(), r.Uvarint()
		suffix, value = r.Raw(unshared), r.Raw(valueLen)
		if err := r.Err(); err != nil {
			return 0, nil, nil, 0, fmt.Errorf("%w: block entry: %v", ErrCorrupt, err)
		}
		return shared, suffix, value, len(b.data) - r.Len(), nil
	}
	d = d[3:]
	if unshared > uint64(len(d)) || valueLen > uint64(len(d))-unshared {
		return 0, nil, nil, 0, fmt.Errorf("%w: block entry at %d overruns the block", ErrCorrupt, off)
	}
	k, v := int(unshared), int(unshared+valueLen)
	return shared, d[:k:k], d[k:v:v], off + 3 + v, nil
}

// restartEntry returns the key and value of the entry at restart point i
// in place: an entry at a restart point shares no prefix, so its key lies
// whole in the block.
func (b block) restartEntry(i int) (key internalKey, value []byte, err error) {
	shared, suffix, value, _, err := b.entry(b.restart(i))
	if err == nil && shared != 0 {
		err = fmt.Errorf("%w: restart entry shares %d bytes", ErrCorrupt, shared)
	}
	return internalKey(suffix), value, err
}

// restartKey is the key of restartEntry(i).
func (b block) restartKey(i int) (internalKey, error) {
	key, _, err := b.restartEntry(i)
	return key, err
}

// searchRestarts returns how many restart points have a key < ik — for an
// index block, whose every entry is a restart point, the position of the
// first entry >= ik. It compares the keys in place.
func (b block) searchRestarts(ik internalKey) (int, error) {
	lo, hi := 0, b.numRestarts()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		key, err := b.restartKey(mid)
		if err != nil {
			return 0, err
		}
		if compareInternal(key, ik) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// decodeEntryAt parses the entry at off given the key prefix state in
// it.key; returns false at end of data or on corruption.
func (it *blockIter) decodeEntryAt(off int) bool {
	if off >= len(it.b.data) {
		it.valid = false
		return false
	}
	shared, suffix, value, next, err := it.b.entry(off)
	if err != nil {
		it.fail(err)
		return false
	}
	if shared > uint64(len(it.key)) {
		it.fail(fmt.Errorf("%w: block entry shares %d of a %d-byte key", ErrCorrupt, shared, len(it.key)))
		return false
	}
	it.key = append(it.key[:shared], suffix...)
	it.value = value
	it.offset = off
	it.next = next
	it.valid = true
	return true
}

func (it *blockIter) fail(err error) {
	it.err = fmt.Errorf("store: block iter: %w", err)
	it.valid = false
}

// SeekToFirst positions at the first entry.
func (it *blockIter) SeekToFirst() {
	it.key = it.key[:0]
	it.decodeEntryAt(0)
}

// SeekGE positions at the first entry with key >= ik: a binary search of
// the restart points, comparing their keys in place, then a scan of at most
// one restart interval.
func (it *blockIter) SeekGE(ik internalKey) {
	lo, err := it.b.searchRestarts(ik)
	if err != nil {
		it.fail(err)
		return
	}
	start := 0
	if lo > 0 {
		start = it.b.restart(lo - 1)
	}
	it.key = it.key[:0]
	if !it.decodeEntryAt(start) {
		return
	}
	it.scanTo(ik)
}

// scanTo advances to the first entry at or after the current one whose key
// is >= ik.
func (it *blockIter) scanTo(ik internalKey) {
	for compareInternal(internalKey(it.key), ik) < 0 {
		if !it.decodeEntryAt(it.next) {
			return
		}
	}
}

// Next advances to the following entry.
func (it *blockIter) Next() {
	if !it.valid {
		return
	}
	it.decodeEntryAt(it.next)
}

func (it *blockIter) Valid() bool      { return it.valid }
func (it *blockIter) Key() internalKey { return internalKey(it.key) }
func (it *blockIter) Value() []byte    { return it.value }
func (it *blockIter) Error() error     { return it.err }
func (it *blockIter) Close() error     { return it.err }
