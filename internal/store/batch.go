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
func (b *Batch) Encode() []byte { return b.encode(nil) }

// DecodeBatch parses a batch serialized with Encode.
func DecodeBatch(data []byte) (*Batch, error) {
	b, err := decodeBatch(data)
	if err != nil {
		return nil, err
	}
	// Copy out of the caller's buffer: the batch may outlive it.
	b.data = append([]byte(nil), b.data...)
	return b, nil
}

// Empty reports whether the batch has no operations.
func (b *Batch) Empty() bool { return b.count == 0 }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.startSeq = 0
	b.count = 0
	b.data = b.data[:0]
}

// ApproximateBytes returns the encoded payload size.
func (b *Batch) ApproximateBytes() int { return len(b.data) + 16 }

// encode serializes the batch with its assigned start sequence.
func (b *Batch) encode(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, b.startSeq)
	dst = wire.AppendUvarint(dst, uint64(b.count))
	return append(dst, b.data...)
}

// decodeBatch parses an encoded batch (e.g. a WAL record).
func decodeBatch(payload []byte) (*Batch, error) {
	r := wire.NewReader(payload)
	// A record is at least a kind byte and a key length.
	b := &Batch{startSeq: r.Uvarint(), count: r.Count(2), data: r.Rest()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: batch header: %v", ErrCorrupt, err)
	}
	// Validate the records eagerly so corruption is caught at decode time.
	trailing, err := b.each(func(byte, []byte, []byte) error { return nil })
	if err == nil && trailing > 0 {
		err = fmt.Errorf("%w: %d bytes after the last batch record", ErrCorrupt, trailing)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

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
// numbers starting at b.startSeq.
func (b *Batch) apply(m *memtable) error {
	seq := b.startSeq
	return b.ForEach(func(kind byte, key, value []byte) error {
		// Copy out of the shared encode buffer: the memtable retains
		// references for its lifetime.
		k := append([]byte(nil), key...)
		var v []byte
		if kind == byte(kindSet) {
			v = append([]byte(nil), value...)
		}
		m.add(seq, keyKind(kind), k, v)
		seq++
		return nil
	})
}
