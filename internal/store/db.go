package store

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// DB is an embedded LSM-tree key-value store. All methods are safe for
// concurrent use.
type DB struct {
	dir  string
	opts *Options
	lock *os.File

	mu   sync.Mutex
	cond *sync.Cond // signaled when flush/compaction state changes
	mem  *memtable
	imm  *memtable // frozen memtable being flushed; nil if none
	// writers is the group-commit queue: the head is the current leader,
	// which forms a write group from the queue prefix, performs the WAL
	// I/O for all members with mu released, hands the group to the group
	// hook, then completes them and promotes the next head. Guarded by mu.
	writers []*dbWriter
	// writeActive is true while a group leader performs WAL I/O with mu
	// released; WAL rotation (Flush) and Close must wait for it so the
	// log is never swapped out from under an in-flight group.
	writeActive bool
	wal         *walWriter
	walNum      uint64
	immWal      uint64 // WAL number backing imm
	lastSeq     uint64
	nextFile    uint64
	current     *version
	man         *manifest
	snaps       map[uint64]int // snapshot seq -> refcount
	// closed is set under mu by Close, and read without it by a pinned
	// Snapshot's reads, which take no lock.
	closed   atomic.Bool
	bgErr    error
	bgActive bool

	compactPtr [numLevels][]byte // round-robin compaction cursors (user keys)

	tcache *tableCache

	bgWork chan struct{}
	bgQuit chan struct{}
	bgDone chan struct{}

	// metrics holds pre-resolved instruments; see dbMetrics.
	metrics *dbMetrics
}

// dbMetrics caches the store's instruments so hot paths skip the registry.
type dbMetrics struct {
	writes      *telemetry.Counter
	walBytes    *telemetry.Counter
	walSyncs    *telemetry.Counter
	flushes     *telemetry.Counter
	compactions *telemetry.Counter
	compactUs   *telemetry.Histogram
	// tableSeeks counts binary searches of a table's index: the table
	// probes that did not resume in their cursor's block or the next one.
	tableSeeks *telemetry.Counter
	// groupSize records the member count of each committed write group.
	groupSize *telemetry.Histogram
	// fsyncUs records the latency of each synced WAL append — the
	// "WAL fsync lag" column of the cluster rollup.
	fsyncUs *telemetry.Histogram
}

func newDBMetrics(reg *telemetry.Registry) *dbMetrics {
	return &dbMetrics{
		writes:      reg.Counter("store.writes"),
		walBytes:    reg.Counter("store.wal_bytes"),
		walSyncs:    reg.Counter("store.wal_syncs"),
		flushes:     reg.Counter("store.flushes"),
		compactions: reg.Counter("store.compactions"),
		compactUs:   reg.Histogram("store.compact"),
		tableSeeks:  reg.Counter("store.table_seeks"),
		groupSize:   reg.CountHistogram("wal.group_size"),
		fsyncUs:     reg.Histogram("wal.fsync"),
	}
}

// Open opens (creating if necessary) the database in dir.
func Open(dir string, opts *Options) (*DB, error) {
	opts = opts.sanitize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir: %w", err)
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}

	v, logNum, nextFile, lastSeq, err := loadManifest(dir)
	if err != nil {
		lock.Close()
		return nil, err
	}

	db := &DB{
		dir:      dir,
		opts:     opts,
		lock:     lock,
		mem:      newMemtable(),
		lastSeq:  lastSeq,
		nextFile: nextFile,
		snaps:    make(map[uint64]int),
		tcache:   newTableCache(dir),
		metrics:  newDBMetrics(opts.Metrics),
		bgWork:   make(chan struct{}, 1),
		bgQuit:   make(chan struct{}),
		bgDone:   make(chan struct{}),
	}
	db.cond = sync.NewCond(&db.mu)
	db.setCurrent(v)

	// Replay every WAL at least as new as the manifest's log number; older
	// ones were flushed before a crash kept them from being removed.
	logs, err := fileNums(dir, ".log")
	if err != nil {
		lock.Close()
		return nil, err
	}
	for _, num := range logs {
		if num < logNum {
			continue
		}
		last, err := recoverLog(walPath(dir, num), db.mem)
		if err != nil {
			lock.Close()
			return nil, err
		}
		db.lastSeq = max(db.lastSeq, last)
		if num >= db.nextFile {
			db.nextFile = num + 1
		}
	}

	// Start a fresh WAL for the recovered memtable contents plus new writes.
	db.walNum = db.nextFile
	db.nextFile++
	db.wal, err = newWALWriter(walPath(dir, db.walNum), dir)
	if err != nil {
		lock.Close()
		return nil, err
	}
	// Re-log recovered entries so the old logs can be dropped.
	if db.mem.len() > 0 {
		if err := db.relogMemtable(); err != nil {
			lock.Close()
			return nil, err
		}
	}

	// Rewrite the manifest as a snapshot and point it at the new WAL.
	db.man, err = createManifest(dir, snapshotEdit(v, db.walNum, db.nextFile, db.lastSeq))
	if err != nil {
		lock.Close()
		return nil, err
	}

	db.removeObsoleteFiles(logs)
	go db.backgroundLoop()
	return db, nil
}

// removeObsoleteFiles deletes what the manifest Open just wrote does not
// name: the logs listed before the fresh one was created, and every table
// outside the recovered version — written but never installed, or retired
// but never unlinked, when a crash fell in between (LevelDB's
// RemoveObsoleteFiles). Called from Open, before the DB is shared.
func (db *DB) removeObsoleteFiles(logs []uint64) {
	for _, num := range logs {
		os.Remove(walPath(db.dir, num))
	}
	live := make(map[uint64]bool)
	for _, tables := range db.current.levels {
		for _, t := range tables {
			live[t.fileNum] = true
		}
	}
	tables, _ := fileNums(db.dir, ".sst")
	for _, num := range tables {
		if !live[num] {
			os.Remove(tablePath(db.dir, num))
		}
	}
}

// recoverLog replays the WAL at path into mem and returns the newest
// sequence number it held, 0 for none.
func recoverLog(path string, mem *memtable) (last uint64, err error) {
	var b Batch
	err = replayWAL(path, func(record []byte) error {
		if err := b.Decode(record); err != nil {
			return err
		}
		if err := b.apply(mem); err != nil {
			return err
		}
		if b.count > 0 {
			last = max(last, b.startSeq+uint64(b.count)-1)
		}
		return nil
	})
	return last, err
}

// relogMemtable rewrites the recovered memtable into the fresh WAL as one
// batch so recovery is idempotent across repeated crashes.
func (db *DB) relogMemtable() error {
	b := NewBatch()
	it := db.mem.iterator()
	// Preserve ordering: replay newest-last. The memtable iterates user-key
	// order with newest versions first, so collect and sort by seq.
	type rec struct {
		seq  uint64
		kind keyKind
		key  []byte
		val  []byte
	}
	var recs []rec
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.Key()
		recs = append(recs, rec{ik.seq(), ik.kind(), append([]byte(nil), ik.userKey()...), append([]byte(nil), it.Value()...)})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	for _, r := range recs {
		if r.kind == kindDelete {
			b.Delete(r.key)
		} else {
			b.Put(r.key, r.val)
		}
	}
	if b.Empty() {
		return nil
	}
	b.startSeq = recs[0].seq
	return db.wal.append(b.Encode(), true)
}

// acquireDirLock takes an exclusive flock on dir/LOCK, preventing two
// processes from opening the same database.
func acquireDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(dir+"/LOCK", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: database locked by another process: %w", err)
	}
	return f, nil
}

// fileNums returns, ascending, the numbers of dir's files named
// <number><ext> — the store's logs or tables.
func fileNums(dir, ext string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var nums []uint64
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ext)
		if n, err := strconv.ParseUint(name, 10, 64); ok && err == nil {
			nums = append(nums, n)
		}
	}
	slices.Sort(nums)
	return nums, nil
}

// Put stores key -> value.
func (db *DB) Put(key, value []byte) error {
	b := NewBatch()
	b.Put(key, value)
	return db.Write(b)
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	b := NewBatch()
	b.Delete(key)
	return db.Write(b)
}

// dbWriter is one pending Write in the group-commit queue. The ready
// channel (buffered, capacity 1) is signaled when the writer is promoted to
// the head of the queue or completed by a group leader.
type dbWriter struct {
	batches []*Batch
	err     error
	done    bool
	ready   chan struct{}
}

// dbWriterPool recycles writers with their channels: a Write that has seen
// itself done under db.mu is out of the queue, so nothing signals it again.
var dbWriterPool = sync.Pool{New: func() any { return &dbWriter{ready: make(chan struct{}, 1)} }}

// release returns a finished writer to the pool, taking back the token a
// leader is left with when it completes its own group.
func (w *dbWriter) release() {
	select {
	case <-w.ready:
	default:
	}
	clear(w.batches)
	*w = dbWriter{batches: w.batches[:0], ready: w.ready}
	dbWriterPool.Put(w)
}

// maxGroupBytes bounds the encoded size of one write group so a burst of
// large batches cannot turn into one unbounded WAL write. The first batch
// always commits regardless of size.
const maxGroupBytes = 1 << 20

// Write applies the batches atomically, in order, as one writer: they are
// logged to the WAL, then published to readers in one step.
//
// Concurrent Writes form write groups (LevelDB-style group commit): each
// caller joins a queue, the queue head becomes the leader and performs one
// WAL append — and, with SyncWrites, one fsync — covering every member,
// then completes them all. Durability is unchanged: a Write does not return
// success until its records are (group-)synced and applied, and — for a
// batch marked by Replicate — until the group hook let it through.
func (db *DB) Write(batches ...*Batch) error {
	w := dbWriterPool.Get().(*dbWriter)
	for _, b := range batches {
		if !b.Empty() {
			w.batches = append(w.batches, b)
		}
	}
	if len(w.batches) == 0 {
		w.release()
		return nil
	}
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		w.release()
		return ErrClosed
	}
	db.writers = append(db.writers, w)
	// A writer a released group took out of the queue waits, not queued,
	// for its hook to finish.
	for !w.done && (len(db.writers) == 0 || db.writers[0] != w) {
		db.mu.Unlock()
		<-w.ready
		db.mu.Lock()
	}
	if !w.done {
		// w is the queue head: lead a group commit. commitGroup completes
		// w (and any members it grouped with it) before returning.
		db.commitGroup()
	}
	db.mu.Unlock()
	err := w.err
	w.release()
	return err
}

// commitGroup runs on the writer at the head of db.writers. It forms a
// group from a prefix of the queue, pre-assigns sequence numbers, performs
// the WAL I/O for the whole group with db.mu released (writeActive fences
// WAL rotation meanwhile), applies the batches, hands a group with members
// to the group hook and completes the members. Called and returns with
// db.mu held.
func (db *DB) commitGroup() {
	if db.closed.Load() {
		db.failAllWriters(ErrClosed)
		return
	}
	if err := db.makeRoomForWrite(); err != nil {
		// Backpressure errors (sticky background error, close during a
		// stall) apply to every queued writer equally: fail them all
		// rather than replaying the same failure one head at a time.
		db.failAllWriters(err)
		return
	}
	// Form the group: a prefix of the queue, bounded by encoded bytes.
	// Sequence numbers are assigned now, consecutively; only a group whose
	// WAL write succeeded is applied, so readers never observe sequences
	// that did not commit.
	// The group is the leader's until its hook returns, which may be after
	// the next group formed.
	// The record buffer is sized once, from the encoded lengths of the
	// writers taken: a bulk group (a backup's large frame, a recovery chunk)
	// would otherwise regrow it from empty record by record.
	g := groupPool.Get().(*Group)
	g.db = db
	seq := db.lastSeq
	taken, size, records := 0, 0, 0
	for _, w := range db.writers {
		if taken > 0 && size >= maxGroupBytes {
			break
		}
		for _, b := range w.batches {
			b.startSeq = seq + 1
			seq += uint64(b.count)
			size += b.encodedLen()
		}
		records += len(w.batches)
		taken++
	}
	g.buf = slices.Grow(g.buf, size+wire.MaxFrameOverhead*records)
	for _, w := range db.writers[:taken] {
		for _, b := range w.batches {
			g.log(b, w)
		}
		g.writers = append(g.writers, w)
	}

	sync := db.opts.SyncWrites
	wal := db.wal
	db.writeActive = true
	db.mu.Unlock()
	var syncStart time.Time
	if sync {
		syncStart = time.Now()
	}
	err := wal.appendAll(g.buf, sync)
	db.mu.Lock()
	db.writeActive = false
	// A failed group uses up its numbers too: its records may be in the log
	// already, and a later group reusing them would tie with them on
	// replay. None is in the memtable, so no reader sees them.
	db.lastSeq = seq

	if err == nil {
		for _, w := range g.writers {
			for _, b := range w.batches {
				// Apply failures are per-writer; sequence space was
				// consumed either way, so later members stay consistent.
				if aerr := b.apply(db.mem); aerr != nil && w.err == nil {
					w.err = aerr
				}
			}
		}
		db.metrics.writes.Add(uint64(len(g.writers)))
		db.metrics.walBytes.Add(uint64(size))
		if sync {
			db.metrics.walSyncs.Inc()
			db.metrics.fsyncUs.Record(time.Since(syncStart))
		}
		db.metrics.groupSize.Observe(uint64(len(g.writers)))
	}

	if hook := db.opts.OnGroup; err == nil && hook != nil && g.Len() > 0 {
		g.queued = true
		db.mu.Unlock()
		hook(g)
		g.Release()
		db.mu.Lock()
	} else {
		db.dequeue(len(g.writers))
	}
	for _, w := range g.writers {
		if err != nil {
			w.err = err
		}
		w.done = true
		w.signal()
	}
	g.Reset()
	groupPool.Put(g)
}

// dequeue closes the queue up over its first n writers — a group that has
// logged — and promotes the next head. Called with db.mu held.
func (db *DB) dequeue(n int) {
	m := copy(db.writers, db.writers[n:])
	clear(db.writers[m:])
	db.writers = db.writers[:m]
	if m > 0 {
		db.writers[0].signal()
	}
	db.cond.Broadcast()
}

// signal wakes the writer if it waits; its channel holds one token at most.
func (w *dbWriter) signal() {
	select {
	case w.ready <- struct{}{}:
	default:
	}
}

// failAllWriters completes every queued writer with err and clears the
// queue. Called with db.mu held.
func (db *DB) failAllWriters(err error) {
	for _, w := range db.writers {
		w.err = err
		w.done = true
		w.signal()
	}
	clear(db.writers)
	db.writers = db.writers[:0]
	db.cond.Broadcast()
}

// makeRoomForWrite rotates the memtable when full and applies write stalls,
// mirroring LevelDB's backpressure. Called with db.mu held.
func (db *DB) makeRoomForWrite() error {
	for {
		switch {
		case db.bgErr != nil:
			return db.bgErr
		case db.mem.approximateBytes() < db.opts.memtableBytes:
			return nil
		case db.imm != nil:
			// Previous flush still in progress: wait.
			db.cond.Wait()
			if db.closed.Load() {
				return ErrClosed
			}
		case len(db.current.levels[0]) >= 3*db.opts.l0CompactionTrigger:
			db.cond.Wait()
			if db.closed.Load() {
				return ErrClosed
			}
		default:
			if err := db.rotateLocked(); err != nil {
				return err
			}
		}
	}
}

// rotateLocked freezes the memtable as imm behind a new WAL and schedules
// its flush. Called with db.mu held, imm nil and no group commit writing to
// the log.
func (db *DB) rotateLocked() error {
	newNum := db.nextFile
	db.nextFile++
	wal, err := newWALWriter(walPath(db.dir, newNum), db.dir)
	if err != nil {
		return err
	}
	db.wal.close()
	db.imm, db.immWal = db.mem, db.walNum
	db.mem, db.wal, db.walNum = newMemtable(), wal, newNum
	db.scheduleBackground()
	return nil
}

// scheduleBackground nudges the background loop. Called with db.mu held.
func (db *DB) scheduleBackground() {
	select {
	case db.bgWork <- struct{}{}:
	default:
	}
}

// latestSeq as a read's snapshot sequence means "the latest committed
// state": getInto captures the real sequence under db.mu.
const latestSeq = ^uint64(0)

// Get returns the value for key at the latest committed state.
func (db *DB) Get(key []byte) ([]byte, error) {
	return orNotFound(db.getInto(nil, key, latestSeq))
}

// GetInto appends the latest committed value of key to dst and returns the
// extended slice; present is false (and dst returned as is) when the key is
// absent. With a reused dst a read allocates nothing.
func (db *DB) GetInto(dst, key []byte) (val []byte, present bool, err error) {
	return db.getInto(dst, key, latestSeq)
}

// orNotFound adapts getInto's result to the ErrNotFound convention.
func orNotFound(val []byte, present bool, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, ErrNotFound
	}
	return val, nil
}

// VisitLatest calls fn with the current committed value of key (present
// false when absent) in pooled scratch instead of copying it out. fn must
// not retain or mutate the slice. This is the result-cache validation path,
// which only hashes the value.
func (db *DB) VisitLatest(key []byte, fn func(value []byte, present bool)) error {
	rs := readScratchPool.Get().(*readScratch)
	val, present, err := db.read(rs, rs.val[:0], key, latestSeq)
	if err == nil {
		fn(val, present)
	}
	rs.val = val
	rs.release()
	return err
}

// getInto is Get and GetInto: a point read of key as of snapshot seq
// (memtables, then tables), appending a live value to dst.
func (db *DB) getInto(dst, key []byte, seq uint64) (val []byte, present bool, err error) {
	rs := readScratchPool.Get().(*readScratch)
	val, present, err = db.read(rs, dst, key, seq)
	rs.release()
	return val, present, err
}

// readScratch is the working memory of point reads: the lookup key and the
// cursor of the table probes. A DB read takes one from a pool and drops its
// cursor when it ends; a pinned Snapshot owns one and keeps its cursor from
// read to read.
type readScratch struct {
	ikey []byte // internal lookup key, built once and shared by every probe
	cur  cursor
	val  []byte // value buffer of VisitLatest's miss path
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// scratchRetainMax is the largest buffer a pooled scratch object carries
// over to its next use: one oversized key or value must not pin its
// footprint there.
const scratchRetainMax = 4 << 10

// retained empties a buffer for reuse, or drops it if it outgrew
// scratchRetainMax.
func retained(b []byte) []byte {
	if cap(b) > scratchRetainMax {
		return nil
	}
	return b[:0]
}

// release returns the scratch to the pool; its cursor must hold no table.
func (rs *readScratch) release() {
	rs.trim()
	readScratchPool.Put(rs)
}

// trim empties the scratch's buffers, keeping those worth reusing.
func (rs *readScratch) trim() {
	*rs = readScratch{ikey: retained(rs.ikey), cur: cursor{it: blockIter{key: retained(rs.cur.it.key)}}, val: retained(rs.val)}
}

// read is getInto with the caller's scratch: it pins what the read needs
// (memtables and table layout), searches it and lets go of the table its
// cursor holds.
func (db *DB) read(rs *readScratch, dst, key []byte, seq uint64) (val []byte, present bool, err error) {
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		return dst, false, ErrClosed
	}
	if seq == latestSeq {
		seq = db.lastSeq
	}
	mem, imm, v := db.mem, db.imm, db.current
	v.refs.Add(1)
	db.mu.Unlock()

	rs.ikey = makeInternalKey(rs.ikey, key, seq, kindSeek)
	val, present, err = db.search(rs, dst, mem, imm, v)
	rs.cur.drop(db.tcache)
	db.unref(v)
	return val, present, err
}

// search is the one point-read primitive: the full LSM lookup of rs.ikey —
// memtables, then v's L0 tables newest-first, then one table per deeper
// level. DB reads and Snapshot reads both run it; the cursor in rs changes
// only how a table it picked is probed, never which tables are. A live value
// is copied once, from the skiplist node or the immutable block straight
// into dst.
func (db *DB) search(rs *readScratch, dst []byte, mem, imm *memtable, v *version) (val []byte, present bool, err error) {
	lookup := internalKey(rs.ikey)
	if value, kind, ok := mem.get(lookup); ok {
		return appendLive(dst, value, kind)
	}
	if imm != nil {
		if value, kind, ok := imm.get(lookup); ok {
			return appendLive(dst, value, kind)
		}
	}
	key := lookup.userKey()
	for _, t := range v.levels[0] {
		if !t.overlaps(key, key) {
			continue
		}
		if val, present, done, err := db.tableGet(rs, dst, t); done {
			return val, present, err
		}
	}
	for level := 1; level < numLevels; level++ {
		// Search by internal key so versions of a user key that straddle a
		// table boundary are found in the correct file.
		tables := v.levels[level]
		i := findTable(tables, lookup)
		if i >= len(tables) || bytes.Compare(tables[i].smallest.userKey(), key) > 0 {
			continue
		}
		if val, present, done, err := db.tableGet(rs, dst, tables[i]); done {
			return val, present, err
		}
	}
	return dst, false, nil
}

// appendLive appends value to dst unless the version found is a tombstone.
func appendLive(dst, value []byte, kind keyKind) ([]byte, bool, error) {
	if kind == kindDelete {
		return dst, false, nil
	}
	return append(dst, value...), true, nil
}

// tableGet probes one table for rs.ikey through rs's cursor. done=true
// means the lookup is resolved: a value, a tombstone, or an error.
func (db *DB) tableGet(rs *readScratch, dst []byte, t *tableMeta) (val []byte, present, done bool, err error) {
	value, kind, ok, err := rs.cur.probe(db, t, internalKey(rs.ikey))
	if ok {
		// value aliases the mapped table the cursor holds.
		dst, present, _ = appendLive(dst, value, kind)
	}
	return dst, present, ok || err != nil, err
}

// setCurrent installs nv as the current version, taking a reference on it
// and on each table it names, and returns the version it replaces (nil at
// open), which the caller must unref once db.mu is released. Called with
// db.mu held (or from Open, before the DB is shared).
func (db *DB) setCurrent(nv *version) (old *version) {
	for _, tables := range nv.levels {
		for _, t := range tables {
			t.refs.Add(1)
		}
	}
	nv.refs.Add(1)
	old, db.current = db.current, nv
	return old
}

// unref drops one reference to v: db.current's own, a point read's or an
// iterator's. Whoever drops the last one releases v's tables, and a table
// no remaining version names is closed and unlinked — never earlier, so a
// reader that captured v can still open every table it lists.
func (db *DB) unref(v *version) {
	if v == nil || v.refs.Add(-1) > 0 {
		return
	}
	for _, tables := range v.levels {
		for _, t := range tables {
			if t.refs.Add(-1) == 0 {
				db.tcache.evict(t.fileNum)
				os.Remove(tablePath(db.dir, t.fileNum))
			}
		}
	}
}

// Snapshot pins a consistent view of the database: its sequence, and the
// memtables and table layout that hold every write up to it, with a
// reference on the version the way an iterator holds one. Its reads take no
// lock of the DB's, and keep a cursor into the last table they probed, so
// reads of nearby keys resume in the block the previous one landed in. A
// Snapshot is for one goroutine at a time.
type Snapshot struct {
	db       *DB
	seq      uint64
	mem, imm *memtable
	v        *version
	rs       readScratch
}

// GetSnapshot returns a handle to the current state; callers must Release
// it so compaction can reclaim shadowed versions.
func (db *DB) GetSnapshot() *Snapshot {
	s := new(Snapshot)
	db.Pin(s)
	return s
}

// Pin is GetSnapshot into a Snapshot the caller owns — one kept from use to
// use allocates nothing. s must not be pinned: Release it first.
func (db *DB) Pin(s *Snapshot) {
	db.mu.Lock()
	db.snaps[db.lastSeq]++
	s.db, s.seq = db, db.lastSeq
	s.mem, s.imm, s.v = db.mem, db.imm, db.current
	s.v.refs.Add(1)
	db.mu.Unlock()
}

// Get reads key at the snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	return orNotFound(s.GetInto(nil, key))
}

// GetInto is DB.GetInto at the snapshot.
func (s *Snapshot) GetInto(dst, key []byte) (val []byte, present bool, err error) {
	if s.db.closed.Load() {
		return dst, false, ErrClosed
	}
	s.rs.ikey = makeInternalKey(s.rs.ikey, key, s.seq, kindSeek)
	return s.db.search(&s.rs, dst, s.mem, s.imm, s.v)
}

// Release unpins the snapshot: it lets go of its cursor's table and its
// version, also after DB.Close. Idempotent.
func (s *Snapshot) Release() {
	db := s.db
	if db == nil {
		return
	}
	s.rs.cur.drop(db.tcache)
	db.mu.Lock()
	if n, ok := db.snaps[s.seq]; ok {
		if n <= 1 {
			delete(db.snaps, s.seq)
		} else {
			db.snaps[s.seq] = n - 1
		}
	}
	db.mu.Unlock()
	db.unref(s.v)
	s.db, s.mem, s.imm, s.v = nil, nil, nil, nil
	s.rs.trim()
}

// smallestSnapshot returns the lowest pinned sequence (or lastSeq). Called
// with db.mu held.
func (db *DB) smallestSnapshot() uint64 {
	smallest := db.lastSeq
	for seq := range db.snaps {
		if seq < smallest {
			smallest = seq
		}
	}
	return smallest
}

// NewIterator returns a cursor over the latest committed state.
func (db *DB) NewIterator() (*Iterator, error) {
	snap := db.GetSnapshot()
	it, err := snap.NewIterator() // ErrClosed on a closed DB
	if err != nil {
		snap.Release()
		return nil, err
	}
	inner := it.closer
	it.closer = func() {
		inner()
		snap.Release()
	}
	return it, nil
}

// NewIterator returns a cursor over the snapshot's state. The iterator
// takes a reference of its own on the snapshot's version, held until Close,
// so the tables it opens lazily are still there when it reaches them, also
// if the snapshot is released first.
func (s *Snapshot) NewIterator() (*Iterator, error) {
	db, v := s.db, s.v
	if db.closed.Load() {
		return nil, ErrClosed
	}
	v.refs.Add(1)
	iters := []internalIterator{s.mem.iterator()}
	if s.imm != nil {
		iters = append(iters, s.imm.iterator())
	}
	for _, t := range v.levels[0] {
		it, err := db.tcache.tableIterator(t.fileNum)
		if err != nil {
			newMergingIter(iters...).Close()
			db.unref(v)
			return nil, err
		}
		iters = append(iters, it)
	}
	for level := 1; level < numLevels; level++ {
		if len(v.levels[level]) > 0 {
			iters = append(iters, &concatIter{tables: v.levels[level], tcache: db.tcache, idx: -1})
		}
	}
	return &Iterator{it: newMergingIter(iters...), seq: s.seq, closer: func() { db.unref(v) }}, nil
}

// LastSequence returns the newest committed sequence number.
func (db *DB) LastSequence() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastSeq
}

// CompactNow triggers a compaction round and waits for background work to
// go idle (used by tests and benchmarks for determinism).
func (db *DB) CompactNow() error {
	db.mu.Lock()
	db.scheduleBackground()
	for (db.imm != nil || db.bgActive || db.hasWork()) && db.bgErr == nil && !db.closed.Load() {
		db.cond.Wait()
	}
	err := db.bgErr
	db.mu.Unlock()
	return err
}

// hasWork reports whether a flush or compaction is pending. Called with
// db.mu held.
func (db *DB) hasWork() bool {
	return db.imm != nil || db.pickCompactionLevel() >= 0
}

// Flush forces the current memtable to disk (used by tests).
func (db *DB) Flush() error {
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.mem.len() > 0 {
		// Wait out any in-flight group commit too: rotating the WAL while
		// a leader is appending to it would strand the group's records in
		// a log that no longer backs the memtable they apply to.
		for (db.imm != nil || db.writeActive) && db.bgErr == nil && !db.closed.Load() {
			db.cond.Wait()
		}
		if db.bgErr != nil || db.closed.Load() {
			err := db.bgErr
			db.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return err
		}
		if err := db.rotateLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	for db.imm != nil && db.bgErr == nil && !db.closed.Load() {
		db.cond.Wait()
	}
	err := db.bgErr
	db.mu.Unlock()
	return err
}

// BlockCacheStats and StateCacheStats report zeros: both caches are gone
// (tables are read in place from a mapping; one-key validation replaced the
// state cache), and these shims stay only because the frozen
// benchmark/counts.go still calls them (ROADMAP, benchmark-variant item).
func (db *DB) BlockCacheStats() (hits, misses uint64) { return 0, 0 }

// StateCacheStats: see BlockCacheStats.
func (db *DB) StateCacheStats() (hits, misses uint64) { return 0, 0 }

// TableCount returns the number of live tables per level (for tests and the
// stats endpoint).
func (db *DB) TableCount() [numLevels]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out [numLevels]int
	for i := range db.current.levels {
		out[i] = len(db.current.levels[i])
	}
	return out
}

// Close flushes state and releases all resources. The WAL preserves any
// unflushed memtable contents.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed.Load() {
		db.mu.Unlock()
		return nil
	}
	db.closed.Store(true)
	db.cond.Broadcast()
	db.mu.Unlock()

	close(db.bgQuit)
	<-db.bgDone

	db.mu.Lock()
	defer db.mu.Unlock()
	// Let any in-flight group commit finish and the writer queue drain
	// (the next promoted head observes closed and fails the remainder)
	// before closing the WAL underneath them.
	for db.writeActive || len(db.writers) > 0 {
		db.cond.Wait()
	}
	var firstErr error
	if err := db.wal.close(); err != nil {
		firstErr = err
	}
	if err := db.man.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	db.tcache.closeAll()
	syscall.Flock(int(db.lock.Fd()), syscall.LOCK_UN)
	if err := db.lock.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
