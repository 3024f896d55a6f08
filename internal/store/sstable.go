package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"syscall"

	"lambdastore/internal/telemetry"
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
	tableMagic = 0x4c414d4244415354 // "LAMBDAST"
	footerLen  = 48
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
	*tableScratch
	f      *os.File
	opts   *Options
	offset uint64

	numEntries uint64
	smallest   internalKey
	largest    internalKey

	pendingHandle blockHandle
	havePending   bool
	err           error
}

// tableScratch is a table write's working memory, reused from block to block
// and, through tableScratches, from table to table, so a write allocates
// nothing per block and none of it is regrown per table. Nothing in it
// outlives the write: w copies out every block before its builder resets,
// buildBloom copies out the hashes, and idxBlk.add the index entry's parts.
type tableScratch struct {
	w           *bufio.Writer
	dataBlk     *blockBuilder
	idxBlk      *blockBuilder
	bloomHashes []uint32 // bloomHash of every user key added

	// The index entry of the last block flushed: its last key, the
	// separator, its internal key and the encoded handle.
	pendingLast internalKey
	sep         []byte
	indexKey    internalKey
	handle      []byte
	crc         [4]byte // a block's CRC on its way into w (a stack array would escape)
}

var tableScratches = sync.Pool{New: func() any {
	return &tableScratch{
		w:       bufio.NewWriterSize(nil, 256<<10),
		dataBlk: newBlockBuilder(dataRestartInterval),
		idxBlk:  newBlockBuilder(1),
	}
}}

// newTableWriter creates the table file at path.
func newTableWriter(path string, opts *Options) (*tableWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create sstable: %w", err)
	}
	s := tableScratches.Get().(*tableScratch)
	s.w.Reset(f)
	return &tableWriter{tableScratch: s, f: f, opts: opts}, nil
}

// release returns the scratch to tableScratches once the write is over,
// finished or abandoned.
func (t *tableWriter) release() {
	s := t.tableScratch
	if s == nil {
		return
	}
	t.tableScratch = nil
	s.w.Reset(nil)
	s.dataBlk.reset()
	s.idxBlk.reset()
	s.bloomHashes = s.bloomHashes[:0]
	tableScratches.Put(s)
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
	if t.dataBlk.sizeEstimate() >= t.opts.blockBytes {
		t.flushDataBlock()
	}
}

// flushDataBlock writes the current data block and defers its index entry
// until the next key (so separators can be shortened).
func (t *tableWriter) flushDataBlock() {
	if t.dataBlk.empty() || t.err != nil {
		return
	}
	t.pendingLast = append(t.pendingLast[:0], t.dataBlk.lastKey...)
	h, err := t.writeBlock(t.dataBlk.finish())
	t.dataBlk.reset()
	if err != nil {
		t.err = err
		return
	}
	t.pendingHandle = h
	t.havePending = true
}

// emitIndexEntry records the deferred index entry for the most recently
// flushed block, shortening the separator toward nextUser (nil at finish).
func (t *tableWriter) emitIndexEntry(nextUser []byte) {
	lastUser := t.pendingLast.userKey()
	if nextUser == nil {
		t.sep = successor(t.sep, lastUser)
	} else {
		t.sep = separator(t.sep, lastUser, nextUser)
	}
	indexKey := t.pendingLast
	if !bytes.Equal(t.sep, lastUser) {
		t.indexKey = makeInternalKey(t.indexKey, t.sep, maxSequence, kindSeek)
		indexKey = t.indexKey
	}
	t.handle = t.pendingHandle.encode(t.handle[:0])
	t.idxBlk.add(indexKey, t.handle)
	t.havePending = false
}

// writeBlock appends raw block bytes plus CRC and returns its handle. It
// copies raw out before returning, so the caller may reuse it.
func (t *tableWriter) writeBlock(raw []byte) (blockHandle, error) {
	h := blockHandle{offset: t.offset, length: uint64(len(raw))}
	if _, err := t.w.Write(raw); err != nil {
		return h, fmt.Errorf("store: write block: %w", err)
	}
	binary.LittleEndian.PutUint32(t.crc[:], wire.Checksum(raw))
	if _, err := t.w.Write(t.crc[:]); err != nil {
		return h, fmt.Errorf("store: write block crc: %w", err)
	}
	t.offset += uint64(len(raw)) + 4
	return h, nil
}

// finish flushes remaining blocks, writes filter, index and footer, and
// syncs the file. It returns the table's metadata.
func (t *tableWriter) finish() (smallest, largest internalKey, fileSize uint64, err error) {
	defer t.release()
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
	t.release()
	t.f.Close()
	os.Remove(path)
}

// tableReader reads one SSTable in place from a read-only mapping of the
// whole file (LevelDB's mmap reader: the page cache is the block cache), so
// it is safe for concurrent use. The footer, index, filter and every block
// a read returns are slices of the mapping, valid until close — which the
// table cache calls only when the last reference is released.
type tableReader struct {
	data   []byte // the mapped file
	index  block
	filter []byte
}

// openTable maps the table at path and checks it whole: the footer, then
// every block's checksum and restart array once, so reads trust the mapping.
func openTable(path string) (*tableReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open sstable: %w", err)
	}
	defer f.Close() // the mapping outlives the descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < footerLen {
		return nil, fmt.Errorf("%w: table %s shorter than footer", ErrCorrupt, path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("store: map sstable: %w", err)
	}
	r := &tableReader{data: data}
	if err := r.load(); err != nil {
		r.close()
		return nil, fmt.Errorf("%w (table %s)", err, path)
	}
	return r, nil
}

// load parses the footer, the index and the filter, and verifies every data
// block the index points at.
func (r *tableReader) load() (err error) {
	footer := r.data[len(r.data)-footerLen:]
	if binary.LittleEndian.Uint64(footer[40:]) != tableMagic {
		return fmt.Errorf("%w: bad table magic", ErrCorrupt)
	}
	filterHandle := blockHandle{
		offset: binary.LittleEndian.Uint64(footer[0:]),
		length: binary.LittleEndian.Uint64(footer[8:]),
	}
	indexHandle := blockHandle{
		offset: binary.LittleEndian.Uint64(footer[16:]),
		length: binary.LittleEndian.Uint64(footer[24:]),
	}
	if r.index, err = r.block(indexHandle, true); err != nil {
		return err
	}
	if filterHandle.length > 0 {
		if r.filter, err = r.blockBytes(filterHandle, true); err != nil {
			return err
		}
	}
	it := r.index.iterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if _, err := r.dataBlock(it.Value(), true); err != nil {
			return err
		}
	}
	return it.Error()
}

// blockBytes returns the block at h, verifying its checksum if verify is
// set. The footer's handles carry no checksum, so h may hold anything: the
// bound is written so that no sum of its fields can wrap.
func (r *tableReader) blockBytes(h blockHandle, verify bool) ([]byte, error) {
	size := uint64(len(r.data))
	if h.offset > size || size-h.offset < 4 || h.length > size-h.offset-4 {
		return nil, fmt.Errorf("%w: block handle out of range", ErrCorrupt)
	}
	raw := r.data[h.offset : h.offset+h.length]
	if verify && binary.LittleEndian.Uint32(r.data[h.offset+h.length:]) != wire.Checksum(raw) {
		return nil, fmt.Errorf("%w: block checksum mismatch", ErrCorrupt)
	}
	return raw, nil
}

// block parses the block at h, verifying its checksum and restart array if
// verify is set.
func (r *tableReader) block(h blockHandle, verify bool) (block, error) {
	raw, err := r.blockBytes(h, verify)
	if err != nil {
		return block{}, err
	}
	blk, err := parseBlock(raw)
	if err == nil && verify {
		err = blk.check()
	}
	return blk, err
}

// dataBlock parses the data block an index entry's value points at. load
// verified them all, so a read passes verify=false.
func (r *tableReader) dataBlock(handle []byte, verify bool) (block, error) {
	h, err := decodeHandle(handle)
	if err != nil {
		return block{}, fmt.Errorf("%w: index handle: %v", ErrCorrupt, err)
	}
	return r.block(h, verify)
}

// cursor is where a point read's table probes stand: the table last
// probed, held by a table-cache reference until the cursor probes another
// table or is dropped; the index entry j of the data block it searched,
// with that block's bounds sep[j-1] (nil for the first block) and sep[j]
// read in place from the index; and an iterator over the block, at the
// entry the probe found. A lookup in (sep[j-1], sep[j]] is in block j, and
// one in (sep[j], sep[j+1]] is in block j+1, so a probe that falls there
// skips the bloom filter and the index search (LevelDB's two-level
// iterator, kept from read to read), and one after the cursor's entry scans
// on from it. Everything but the key buffer aliases the mapped table.
type cursor struct {
	fileNum uint64
	ct      *cachedTable // nil: the cursor holds no table
	j       int
	lo, hi  internalKey // hi nil: no block
	it      blockIter
}

// drop lets go of the cursor's table, keeping its key buffer.
func (c *cursor) drop(tc *tableCache) {
	if c.ct != nil {
		tc.release(c.ct)
	}
	*c = cursor{it: blockIter{key: c.it.key[:0]}}
}

// probe resolves lookup in table t, taking t's reader into the cursor
// unless it holds it already.
func (c *cursor) probe(db *DB, t *tableMeta, lookup internalKey) (value []byte, kind keyKind, ok bool, err error) {
	if c.ct == nil || c.fileNum != t.fileNum {
		c.drop(db.tcache)
		ct, err := db.tcache.acquire(t.fileNum)
		if err != nil {
			return nil, 0, false, err
		}
		c.ct, c.fileNum = ct, t.fileNum
	}
	return c.get(c.ct.reader, lookup, db.metrics.tableSeeks)
}

// get resolves lookup in r, the table the cursor stands in: the first entry
// at or after it whose user key matches — the value, aliasing the mapping,
// and the entry's kind. ok=false if r holds no visible version. A binary
// search of r's index counts on seeks.
func (c *cursor) get(r *tableReader, lookup internalKey, seeks *telemetry.Counter) (value []byte, kind keyKind, ok bool, err error) {
	switch {
	case c.holds(lookup):
		if c.it.Valid() && compareInternal(c.it.Key(), lookup) < 0 {
			c.it.scanTo(lookup)
		} else {
			c.it.SeekGE(lookup)
		}
	case r.filter != nil && !bloomMayContain(r.filter, lookup.userKey()):
		return nil, 0, false, nil
	default:
		if err := c.seek(r, lookup, seeks); err != nil {
			return nil, 0, false, err
		}
	}
	if !c.it.Valid() {
		return nil, 0, false, c.it.Error()
	}
	if !bytes.Equal(c.it.Key().userKey(), lookup.userKey()) {
		return nil, 0, false, nil
	}
	return c.it.Value(), c.it.Key().kind(), true, nil
}

// holds reports whether lookup falls in the cursor's block.
func (c *cursor) holds(lookup internalKey) bool {
	return c.hi != nil && compareInternal(lookup, c.hi) <= 0 &&
		(c.lo == nil || compareInternal(lookup, c.lo) > 0)
}

// seek positions the cursor at the first entry >= lookup in r: in the block
// after its own if lookup falls there, else in the block a binary search of
// the index finds, which seeks counts.
func (c *cursor) seek(r *tableReader, lookup internalKey, seeks *telemetry.Counter) error {
	j := c.j + 1
	if c.hi == nil || compareInternal(lookup, c.hi) <= 0 || j >= r.index.numRestarts() {
		j = -1
	} else if next, err := r.index.restartKey(j); err != nil {
		return err
	} else if compareInternal(lookup, next) > 0 {
		j = -1
	}
	if j < 0 {
		seeks.Inc()
		var err error
		if j, err = r.index.searchRestarts(lookup); err != nil {
			return err
		}
	}
	if err := c.load(r, j); err != nil {
		return err
	}
	c.it.SeekGE(lookup)
	return nil
}

// load points the cursor at data block j of r; past the last block, at none.
func (c *cursor) load(r *tableReader, j int) error {
	c.j, c.lo, c.hi = j, nil, nil
	c.it.reset(block{})
	if j >= r.index.numRestarts() {
		return nil
	}
	sep, handle, err := r.index.restartEntry(j)
	if err != nil {
		return err
	}
	if j > 0 {
		if c.lo, err = r.index.restartKey(j - 1); err != nil {
			return err
		}
	}
	blk, err := r.dataBlock(handle, false)
	if err != nil {
		return err
	}
	c.hi = sep
	c.it.reset(blk)
	return nil
}

// close unmaps the table: nothing may touch its bytes afterwards.
func (r *tableReader) close() error { return syscall.Munmap(r.data) }

// iterator returns a two-level iterator over the whole table.
func (r *tableReader) iterator() internalIterator {
	it := &tableIter{r: r}
	it.idx.reset(r.index)
	return it
}

// tableIter chains the index iterator with a data-block iterator.
type tableIter struct {
	r      *tableReader
	idx    blockIter
	data   blockIter
	loaded bool // data iterates the block at idx
	err    error
}

// loadBlock opens the data block at the current index position.
func (it *tableIter) loadBlock() bool {
	it.loaded = false
	if !it.idx.Valid() {
		return false
	}
	blk, err := it.r.dataBlock(it.idx.Value(), false)
	if err != nil {
		it.err = err
		return false
	}
	it.data.reset(blk)
	it.loaded = true
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
	for it.loaded && !it.data.Valid() {
		if it.data.Error() != nil {
			it.err = it.data.Error()
			it.loaded = false
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
	if !it.loaded {
		return
	}
	it.data.Next()
	it.skipEmptyForward()
}

func (it *tableIter) Valid() bool { return it.loaded && it.data.Valid() }

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
	if it.loaded && it.data.Error() != nil {
		return it.data.Error()
	}
	return nil
}

func (it *tableIter) Close() error { return it.Error() }
