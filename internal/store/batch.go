package store

import (
	"fmt"

	"lambdastore/internal/wire"
)

// Batch collects writes (puts and deletes) that the DB applies atomically:
// either every operation in the batch becomes visible at once or none does.
// Batches are the unit written to the write-ahead log and — one level up in
// LambdaStore — the representation of an invocation's committed write-set
// shipped to backup replicas.
//
// Wire format (also the WAL record payload):
//
//	uvarint startSeq | uvarint count | records...
//	record: byte kind | bytes key | [bytes value if kind==set]
type Batch struct {
	startSeq uint64
	count    int
	data     []byte
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put queues a key/value store operation.
func (b *Batch) Put(key, value []byte) {
	b.data = append(b.data, byte(kindSet))
	b.data = wire.AppendBytes(b.data, key)
	b.data = wire.AppendBytes(b.data, value)
	b.count++
}

// Delete queues a tombstone for key.
func (b *Batch) Delete(key []byte) {
	b.data = append(b.data, byte(kindDelete))
	b.data = wire.AppendBytes(b.data, key)
	b.count++
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return b.count }

// Append queues every operation of o onto b, in order. Backups use it to
// collapse the member write-sets of one coalesced replication frame into a
// single batch — and therefore a single WAL append and fsync.
func (b *Batch) Append(o *Batch) {
	b.data = append(b.data, o.data...)
	b.count += o.count
}

// Seq returns the sequence number assigned to the batch's first record by
// the DB at commit time (zero before commit). Replication uses it to order
// shipped write-sets.
func (b *Batch) Seq() uint64 { return b.startSeq }

// Encode serializes the batch (with its assigned sequence) for shipping to
// backup replicas.
func (b *Batch) Encode() []byte { return b.AppendTo(nil) }

// AppendTo appends the batch's encoding to dst: Encode into a buffer the
// caller reuses.
func (b *Batch) AppendTo(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, b.startSeq)
	dst = wire.AppendUvarint(dst, uint64(b.count))
	return append(dst, b.data...)
}

// Decode makes b the batch serialized in data, every record validated. The
// batch aliases data — the copy is the one DB.Write makes into the memtable
// — so data must stay unchanged for as long as b is used: a handler that
// decodes out of its request frame may Write the batch before it returns,
// and must copy data to queue the batch beyond that.
func (b *Batch) Decode(data []byte) error {
	r := wire.NewReader(data)
	// A record is at least a kind byte and a key length.
	*b = Batch{startSeq: r.Uvarint(), count: r.Count(2), data: r.Rest()}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: batch header: %v", ErrCorrupt, err)
	}
	trailing, err := b.each(func(byte, []byte, []byte) error { return nil })
	if err == nil && trailing > 0 {
		err = fmt.Errorf("%w: %d bytes after the last batch record", ErrCorrupt, trailing)
	}
	return err
}

// Empty reports whether the batch has no operations.
func (b *Batch) Empty() bool { return b.count == 0 }

// Reset clears the batch for reuse, keeping its buffer unless one large
// write-set grew it past what is worth carrying to the next.
func (b *Batch) Reset() {
	*b = Batch{data: retained(b.data)}
}

// ApproximateBytes returns the encoded payload size.
func (b *Batch) ApproximateBytes() int { return len(b.data) + 16 }

// ForEach calls fn for every operation in order. kind is byte(kindSet) or
// byte(kindDelete); value is nil for deletes. Returning an error stops the
// walk.
func (b *Batch) ForEach(fn func(kind byte, key, value []byte) error) error {
	_, err := b.each(fn)
	return err
}

// each is ForEach, also returning how many bytes follow the last record.
func (b *Batch) each(fn func(kind byte, key, value []byte) error) (trailing int, err error) {
	r := wire.NewReader(b.data)
	for i := 0; i < b.count; i++ {
		kind, key := r.Byte(), r.Bytes()
		var value []byte
		if kind == byte(kindSet) {
			value = r.Bytes()
		}
		if err := r.Err(); err != nil {
			return 0, fmt.Errorf("%w: batch record %d: %v", ErrCorrupt, i, err)
		}
		if kind != byte(kindSet) && kind != byte(kindDelete) {
			return 0, fmt.Errorf("%w: unknown batch record kind %d", ErrCorrupt, kind)
		}
		if err := fn(kind, key, value); err != nil {
			return 0, err
		}
	}
	return r.Len(), nil
}

// apply inserts every record into the memtable with ascending sequence
// numbers starting at b.startSeq. The memtable copies each record into its
// arena, so b's buffer is free once apply returns.
func (b *Batch) apply(m *memtable) error {
	seq := b.startSeq
	return b.ForEach(func(kind byte, key, value []byte) error {
		err := m.add(seq, keyKind(kind), key, value)
		seq++
		return err
	})
}
