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
// the table writer adds per-block).
func (b *blockBuilder) finish() []byte {
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	for _, r := range b.restarts {
		b.buf = wire.AppendUint32(b.buf, r)
	}
	b.buf = wire.AppendUint32(b.buf, uint32(len(b.restarts)))
	out := b.buf
	return out
}

// reset prepares the builder for the next block.
func (b *blockBuilder) reset() {
	b.buf = nil
	b.restarts = b.restarts[:0]
	b.counter = 0
	b.lastKey = b.lastKey[:0]
}

// block is a parsed, immutable block ready for iteration.
type block struct {
	data        []byte // entries only
	restarts    []uint32
	numRestarts int
}

// parseBlock validates the restart array of a raw (CRC-stripped) block.
func parseBlock(raw []byte) (*block, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: block shorter than restart count", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(raw[len(raw)-4:]))
	restartsLen := 4 * n
	if n <= 0 || restartsLen+4 > len(raw) {
		return nil, fmt.Errorf("%w: block restart count %d invalid", ErrCorrupt, n)
	}
	dataLen := len(raw) - restartsLen - 4
	restarts := make([]uint32, n)
	for i := 0; i < n; i++ {
		restarts[i] = binary.LittleEndian.Uint32(raw[dataLen+4*i:])
		if int(restarts[i]) > dataLen {
			return nil, fmt.Errorf("%w: restart offset beyond block data", ErrCorrupt)
		}
	}
	return &block{data: raw[:dataLen], restarts: restarts, numRestarts: n}, nil
}

// blockIter iterates a block in internal-key order.
type blockIter struct {
	b      *block
	offset int // offset of the current entry
	next   int // offset just past the current entry
	key    []byte
	value  []byte
	err    error
	valid  bool
}

func (b *block) iterator() *blockIter { return &blockIter{b: b} }

// reset points the iterator at another block (nil to let go of the current
// one), keeping its key buffer.
func (it *blockIter) reset(b *block) { *it = blockIter{b: b, key: it.key[:0]} }

// decodeEntryAt parses the entry at off given the key prefix state in
// it.key; returns false at end of data or on corruption.
func (it *blockIter) decodeEntryAt(off int) bool {
	data := it.b.data
	if off >= len(data) {
		it.valid = false
		return false
	}
	r := wire.NewReader(data[off:])
	shared, unshared, valueLen := r.Uvarint(), r.Uvarint(), r.Uvarint()
	suffix, value := r.Raw(unshared), r.Raw(valueLen)
	if err := r.Err(); err != nil {
		it.fail(fmt.Errorf("%w: block entry: %v", ErrCorrupt, err))
		return false
	}
	if shared > uint64(len(it.key)) {
		it.fail(fmt.Errorf("%w: block entry shares %d of a %d-byte key", ErrCorrupt, shared, len(it.key)))
		return false
	}
	it.key = append(it.key[:shared], suffix...)
	it.value = value
	it.offset = off
	it.next = len(data) - r.Len()
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

// SeekGE positions at the first entry with key >= ik.
func (it *blockIter) SeekGE(ik internalKey) {
	// Binary search restart points for the last restart whose key < ik.
	b := it.b
	lo, hi := 0, b.numRestarts
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		it.key = it.key[:0]
		if it.decodeEntryAt(int(b.restarts[mid])) && compareInternal(internalKey(it.key), ik) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := 0
	if lo > 0 {
		start = int(b.restarts[lo-1])
	}
	it.key = it.key[:0]
	if !it.decodeEntryAt(start) {
		return
	}
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
