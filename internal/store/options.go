package store

import (
	"errors"

	"lambdastore/internal/telemetry"
)

// Common errors returned by the DB.
var (
	// ErrNotFound is returned by Get when the key does not exist or its
	// newest visible version is a tombstone.
	ErrNotFound = errors.New("store: key not found")
	// ErrClosed is returned by all operations after Close.
	ErrClosed = errors.New("store: database closed")
	// ErrCorrupt indicates an on-disk structure failed validation.
	ErrCorrupt = errors.New("store: corruption detected")
)

// Options tunes the database. The zero value is usable; NewOptions fills in
// production defaults.
type Options struct {
	// MemtableBytes is the size at which the active memtable is frozen and
	// scheduled for flush to L0.
	MemtableBytes int
	// BlockBytes is the uncompressed target size of an SSTable data block.
	BlockBytes int
	// L0CompactionTrigger is the number of L0 tables that triggers a
	// compaction into L1.
	L0CompactionTrigger int
	// L0StopWritesTrigger is the number of L0 tables at which writes stall
	// until compaction catches up.
	L0StopWritesTrigger int
	// LevelBaseBytes is the target total size of L1; each deeper level is
	// LevelMultiplier times larger.
	LevelBaseBytes int64
	// LevelMultiplier is the size ratio between adjacent levels.
	LevelMultiplier int64
	// SyncWrites forces an fsync of the WAL on every committed write group.
	// Off by default, as in LevelDB: cmd/retwis-bench and the daemons leave
	// it off; the benchmark/ yardstick, the chaos suite and the durability
	// tests turn it on.
	SyncWrites bool
	// Metrics, if set, receives storage counters: batch writes, WAL bytes
	// and syncs, memtable flushes, and compactions.
	Metrics *telemetry.Registry
	// OnGroup, if set, is the group hook: a write group whose WAL write
	// succeeded and that holds batches marked by Batch.Replicate is handed
	// to it after its records are applied and before its Writes return. It
	// holds the writer queue until it calls Group.Release (so the next group
	// forms behind it), and it withholds a member's ack with Group.Fail.
	OnGroup func(*Group)
}

// NewOptions returns production defaults scaled for test-friendly sizes.
func NewOptions() *Options {
	return &Options{
		MemtableBytes:       4 << 20,
		BlockBytes:          4 << 10,
		L0CompactionTrigger: 4,
		L0StopWritesTrigger: 12,
		LevelBaseBytes:      10 << 20,
		LevelMultiplier:     10,
	}
}

// maxMemtableBytes caps MemtableBytes at a quarter of what the memtable
// arena's 32-bit refs address, so a memtable rotates long before its arena
// runs out of chunks.
const maxMemtableBytes = arenaMaxChunks * arenaMaxChunkBytes / 4

// sanitize fills zero fields with defaults.
func (o *Options) sanitize() *Options {
	def := NewOptions()
	if o == nil {
		return def
	}
	out := *o
	if out.MemtableBytes <= 0 {
		out.MemtableBytes = def.MemtableBytes
	}
	out.MemtableBytes = min(out.MemtableBytes, maxMemtableBytes)
	if out.BlockBytes <= 0 {
		out.BlockBytes = def.BlockBytes
	}
	if out.L0CompactionTrigger <= 0 {
		out.L0CompactionTrigger = def.L0CompactionTrigger
	}
	if out.L0StopWritesTrigger <= out.L0CompactionTrigger {
		out.L0StopWritesTrigger = out.L0CompactionTrigger * 3
	}
	if out.LevelBaseBytes <= 0 {
		out.LevelBaseBytes = def.LevelBaseBytes
	}
	if out.LevelMultiplier <= 1 {
		out.LevelMultiplier = def.LevelMultiplier
	}
	return &out
}
