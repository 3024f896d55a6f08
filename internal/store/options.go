package store

import (
	"cmp"
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

// Options tunes the database; the zero value is what every deployment
// runs. The LSM's shape belongs to the store: only its own tests resize it.
type Options struct {
	// memtableBytes is the size at which the active memtable is frozen and
	// scheduled for flush to L0 (default 4 MB).
	memtableBytes int
	// blockBytes is the uncompressed target size of an SSTable data block
	// (default 4 KB).
	blockBytes int
	// l0CompactionTrigger is the number of L0 tables that triggers a
	// compaction into L1 (default 4); writes stall at three times as many
	// until compaction catches up.
	l0CompactionTrigger int
	// levelBaseBytes is the target total size of L1 (default 10 MB); each
	// deeper level is levelMultiplier (default 10) times larger.
	levelBaseBytes  int64
	levelMultiplier int64
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

// maxMemtableBytes caps memtableBytes at a quarter of what the memtable
// arena's 32-bit refs address, so a memtable rotates long before its arena
// runs out of chunks.
const maxMemtableBytes = arenaMaxChunks * arenaMaxChunkBytes / 4

// sanitize fills zero fields with defaults.
func (o *Options) sanitize() *Options {
	var out Options
	if o != nil {
		out = *o
	}
	out.memtableBytes = min(cmp.Or(out.memtableBytes, 4<<20), maxMemtableBytes)
	out.blockBytes = cmp.Or(out.blockBytes, 4<<10)
	out.l0CompactionTrigger = cmp.Or(out.l0CompactionTrigger, 4)
	out.levelBaseBytes = cmp.Or(out.levelBaseBytes, 10<<20)
	out.levelMultiplier = cmp.Or(out.levelMultiplier, 10)
	return &out
}
