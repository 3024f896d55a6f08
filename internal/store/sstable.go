package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"lambdastore/internal/wire"
)

// SSTables are immutable sorted files of internal-key entries:
//
//	data block*    each block followed by a uint32 crc32c
//	filter block   bloom filter over user keys, followed by crc
//	index block    block-format entries: separator ikey -> (offset, len)
//	footer         fixed 48 bytes:
//	               u64 filterOff | u64 filterLen | u64 indexOff
//	               | u64 indexLen | u64 numEntries | u64 magic
const (
	tableMagic  = 0x4c414d4244415354 // "LAMBDAST"
	footerLen   = 48
	handleBytes = 2 * binary.MaxVarintLen64
)

// blockHandle locates a block within the file (length excludes the CRC).
type blockHandle struct {
	offset uint64
	length uint64
}

func (h blockHandle) encode(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, h.offset)
	return wire.AppendUvarint(dst, h.length)
}

func decodeHandle(b []byte) (blockHandle, error) {
	r := wire.NewReader(b)
	h := blockHandle{offset: r.Uvarint(), length: r.Uvarint()}
	return h, r.ErrIn("store: block handle")
}

// tableWriter streams sorted entries into an SSTable file.
type tableWriter struct {
	f       *os.File
	w       *bufio.Writer
	opts    *Options
	offset  uint64
	dataBlk *blockBuilder
	idxBlk  *blockBuilder

	bloomHashes []uint32 // bloomHash of every user key added
	numEntries  uint64
	smallest    internalKey
	largest     internalKey

	pendingHandle blockHandle
	pendingLast   internalKey
	havePending   bool
	err           error
}

// newTableWriter creates the table file at path.
func newTableWriter(path string, opts *Options) (*tableWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create sstable: %w", err)
	}
	return &tableWriter{
		f:       f,
		w:       bufio.NewWriterSize(f, 256<<10),
		opts:    opts,
		dataBlk: newBlockBuilder(dataRestartInterval),
		idxBlk:  newBlockBuilder(1),
	}, nil
}

// add appends an entry; keys must be in ascending internal order.
func (t *tableWriter) add(key internalKey, value []byte) {
	if t.err != nil {
		return
	}
	if t.havePending {
		t.emitIndexEntry(key.userKey())
	}
	if t.smallest == nil {
		t.smallest = append(internalKey(nil), key...)
	}
	t.largest = append(t.largest[:0], key...)
	t.bloomHashes = append(t.bloomHashes, bloomHash(key.userKey()))
	t.dataBlk.add(key, value)
	t.numEntries++
	if t.dataBlk.sizeEstimate() >= t.opts.BlockBytes {
		t.flushDataBlock()
	}
}

// flushDataBlock writes the current data block and defers its index entry
// until the next key (so separators can be shortened).
func (t *tableWriter) flushDataBlock() {
	if t.dataBlk.empty() || t.err != nil {
		return
	}
	last := append(internalKey(nil), t.dataBlk.lastKey...)
	h, err := t.writeBlock(t.dataBlk.finish())
	t.dataBlk.reset()
	if err != nil {
		t.err = err
		return
	}
	t.pendingHandle = h
	t.pendingLast = last
	t.havePending = true
}

// emitIndexEntry records the deferred index entry for the most recently
// flushed block, shortening the separator toward nextUser (nil at finish).
func (t *tableWriter) emitIndexEntry(nextUser []byte) {
	var indexKey internalKey
	lastUser := t.pendingLast.userKey()
	var sep []byte
	if nextUser == nil {
		sep = successor(lastUser)
	} else {
		sep = separator(lastUser, nextUser)
	}
	if bytes.Equal(sep, lastUser) {
		indexKey = t.pendingLast
	} else {
		indexKey = makeInternalKey(nil, sep, maxSequence, kindSeek)
	}
	t.idxBlk.add(indexKey, t.pendingHandle.encode(make([]byte, 0, handleBytes)))
	t.havePending = false
}

// writeBlock appends raw block bytes plus CRC and returns its handle.
func (t *tableWriter) writeBlock(raw []byte) (blockHandle, error) {
	h := blockHandle{offset: t.offset, length: uint64(len(raw))}
	if _, err := t.w.Write(raw); err != nil {
		return h, fmt.Errorf("store: write block: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], wire.Checksum(raw))
	if _, err := t.w.Write(crc[:]); err != nil {
		return h, fmt.Errorf("store: write block crc: %w", err)
	}
	t.offset += uint64(len(raw)) + 4
	return h, nil
}

// finish flushes remaining blocks, writes filter, index and footer, and
// syncs the file. It returns the table's metadata.
func (t *tableWriter) finish() (smallest, largest internalKey, fileSize uint64, err error) {
	t.flushDataBlock()
	if t.havePending {
		t.emitIndexEntry(nil)
	}
	if t.err != nil {
		t.f.Close()
		return nil, nil, 0, t.err
	}

	filter := buildBloom(t.bloomHashes)
	filterHandle, err := t.writeBlock(filter)
	if err != nil {
		t.f.Close()
		return nil, nil, 0, err
	}
	indexHandle, err := t.writeBlock(t.idxBlk.finish())
	if err != nil {
		t.f.Close()
		return nil, nil, 0, err
	}

	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[0:], filterHandle.offset)
	binary.LittleEndian.PutUint64(footer[8:], filterHandle.length)
	binary.LittleEndian.PutUint64(footer[16:], indexHandle.offset)
	binary.LittleEndian.PutUint64(footer[24:], indexHandle.length)
	binary.LittleEndian.PutUint64(footer[32:], t.numEntries)
	binary.LittleEndian.PutUint64(footer[40:], tableMagic)
	if _, err := t.w.Write(footer[:]); err != nil {
		t.f.Close()
		return nil, nil, 0, fmt.Errorf("store: write footer: %w", err)
	}
	t.offset += footerLen
	if err := t.w.Flush(); err != nil {
		t.f.Close()
		return nil, nil, 0, err
	}
	if err := t.f.Sync(); err != nil {
		t.f.Close()
		return nil, nil, 0, err
	}
	if err := t.f.Close(); err != nil {
		return nil, nil, 0, err
	}
	return t.smallest, t.largest, t.offset, nil
}

// abandon closes and deletes a partially written table.
func (t *tableWriter) abandon(path string) {
	t.f.Close()
	os.Remove(path)
}

// tableReader serves reads from one SSTable via pread, so it is safe for
// concurrent use.
type tableReader struct {
	f          *os.File
	index      *block
	filter     []byte
	numEntries uint64
	size       uint64
	blocks     *blockCache // shared, may be nil
}

// openTable memory-parses the footer, index and filter of the table at path.
func openTable(path string, blocks *blockCache) (*tableReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open sstable: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() < footerLen {
		f.Close()
		return nil, fmt.Errorf("%w: table %s shorter than footer", ErrCorrupt, path)
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], fi.Size()-footerLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: read footer: %w", err)
	}
	if binary.LittleEndian.Uint64(footer[40:]) != tableMagic {
		f.Close()
		return nil, fmt.Errorf("%w: bad table magic in %s", ErrCorrupt, path)
	}
	r := &tableReader{
		f:          f,
		numEntries: binary.LittleEndian.Uint64(footer[32:]),
		size:       uint64(fi.Size()),
		blocks:     blocks,
	}
	filterHandle := blockHandle{
		offset: binary.LittleEndian.Uint64(footer[0:]),
		length: binary.LittleEndian.Uint64(footer[8:]),
	}
	indexHandle := blockHandle{
		offset: binary.LittleEndian.Uint64(footer[16:]),
		length: binary.LittleEndian.Uint64(footer[24:]),
	}
	rawIndex, err := r.readRawBlock(indexHandle)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.index, err = parseBlock(rawIndex)
	if err != nil {
		f.Close()
		return nil, err
	}
	if filterHandle.length > 0 {
		r.filter, err = r.readRawBlock(filterHandle)
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	return r, nil
}

// readRawBlock reads and CRC-verifies the block at h. The footer's handles
// carry no checksum, so h may hold anything: the bound is written so that
// no sum of its fields can wrap.
func (r *tableReader) readRawBlock(h blockHandle) ([]byte, error) {
	if h.offset > r.size || r.size-h.offset < 4 || h.length > r.size-h.offset-4 {
		return nil, fmt.Errorf("%w: block handle out of range", ErrCorrupt)
	}
	buf := make([]byte, h.length+4)
	if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
		return nil, fmt.Errorf("store: read block: %w", err)
	}
	raw := buf[:h.length]
	crc := binary.LittleEndian.Uint32(buf[h.length:])
	if crc != wire.Checksum(raw) {
		return nil, fmt.Errorf("%w: block checksum mismatch", ErrCorrupt)
	}
	return raw, nil
}

// readBlock parses the data block at h, consulting the shared block cache.
func (r *tableReader) readBlock(h blockHandle) (*block, error) {
	if blk := r.blocks.get(r, h.offset); blk != nil {
		return blk, nil
	}
	raw, err := r.readRawBlock(h)
	if err != nil {
		return nil, err
	}
	blk, err := parseBlock(raw)
	if err != nil {
		return nil, err
	}
	r.blocks.put(r, h.offset, blk, len(raw)+64)
	return blk, nil
}

// get resolves the lookup key rs.ikey: it returns the first entry at or
// after it whose user key matches — the value, aliasing the immutable
// block, and the entry's kind. ok=false if this table holds no visible
// version. The cursor and its key buffer live in rs.
func (r *tableReader) get(rs *readScratch) (value []byte, kind keyKind, ok bool, err error) {
	lookup := internalKey(rs.ikey)
	if r.filter != nil && !bloomMayContain(r.filter, lookup.userKey()) {
		return nil, 0, false, nil
	}
	it := &rs.it
	it.reset(r.index)
	it.SeekGE(lookup)
	if !it.Valid() {
		return nil, 0, false, it.Error()
	}
	h, err := decodeHandle(it.Value())
	if err != nil {
		return nil, 0, false, fmt.Errorf("%w: index handle: %v", ErrCorrupt, err)
	}
	blk, err := r.readBlock(h)
	if err != nil {
		return nil, 0, false, err
	}
	it.reset(blk)
	it.SeekGE(lookup)
	if !it.Valid() {
		return nil, 0, false, it.Error()
	}
	if !bytes.Equal(it.Key().userKey(), lookup.userKey()) {
		return nil, 0, false, nil
	}
	return it.Value(), it.Key().kind(), true, nil
}

// close releases the file handle and its cached blocks.
func (r *tableReader) close() error {
	r.blocks.drop(r)
	return r.f.Close()
}

// iterator returns a two-level iterator over the whole table.
func (r *tableReader) iterator() internalIterator {
	return &tableIter{r: r, idx: r.index.iterator()}
}

// tableIter chains the index iterator with per-block data iterators.
type tableIter struct {
	r    *tableReader
	idx  *blockIter
	data *blockIter
	err  error
}

// loadBlock opens the data block at the current index position.
func (it *tableIter) loadBlock() bool {
	if !it.idx.Valid() {
		it.data = nil
		return false
	}
	h, err := decodeHandle(it.idx.Value())
	if err != nil {
		it.err = fmt.Errorf("%w: index handle: %v", ErrCorrupt, err)
		it.data = nil
		return false
	}
	blk, err := it.r.readBlock(h)
	if err != nil {
		it.err = err
		it.data = nil
		return false
	}
	it.data = blk.iterator()
	return true
}

func (it *tableIter) SeekToFirst() {
	it.idx.SeekToFirst()
	if it.loadBlock() {
		it.data.SeekToFirst()
		it.skipEmptyForward()
	}
}

func (it *tableIter) SeekGE(ik internalKey) {
	it.idx.SeekGE(ik)
	if it.loadBlock() {
		it.data.SeekGE(ik)
		it.skipEmptyForward()
	}
}

// skipEmptyForward advances past exhausted data blocks.
func (it *tableIter) skipEmptyForward() {
	for it.data != nil && !it.data.Valid() {
		if it.data.Error() != nil {
			it.err = it.data.Error()
			it.data = nil
			return
		}
		it.idx.Next()
		if !it.loadBlock() {
			return
		}
		it.data.SeekToFirst()
	}
}

func (it *tableIter) Next() {
	if it.data == nil {
		return
	}
	it.data.Next()
	it.skipEmptyForward()
}

func (it *tableIter) Valid() bool { return it.data != nil && it.data.Valid() }

func (it *tableIter) Key() internalKey {
	if !it.Valid() {
		return nil
	}
	return it.data.Key()
}

func (it *tableIter) Value() []byte {
	if !it.Valid() {
		return nil
	}
	return it.data.Value()
}

func (it *tableIter) Error() error {
	if it.err != nil {
		return it.err
	}
	if it.idx.Error() != nil {
		return it.idx.Error()
	}
	if it.data != nil && it.data.Error() != nil {
		return it.data.Error()
	}
	return nil
}

func (it *tableIter) Close() error { return it.Error() }
