package core

import (
	"bytes"
	"hash/maphash"
	"slices"
	"sync"

	"lambdastore/internal/store"
)

// txn is an invocation's private view of its object's state: a write
// buffer layered over a consistent storage snapshot. All mutations stay in
// the buffer until commit, giving the atomicity and isolation halves of
// invocation linearizability.
type txn struct {
	db *store.DB
	// snap is pinned lazily, on first read (after admission), and pinned
	// again after each reset: the txn owns it, so a pin allocates nothing.
	snap   store.Snapshot
	pinned bool

	// The write buffer costs no allocation per write once warm. slab holds
	// every buffered key and value back to back; writes has one entry per
	// distinct key, in first-write order; index maps a key's hash to the
	// newest entry with that hash, and entries that collide chain through
	// prev. A rewritten key's old value stays in the slab until the
	// transaction ends.
	slab   []byte
	writes []bufferedWrite
	index  map[uint64]int
	// order is the scratch sorted builds its result in.
	order []int
	// out is the write-set batch hands to commit.
	out store.Batch
}

// scratchRetainMax is the largest scratch buffer a pooled txn or
// invocation keeps for its next use; one that grew past it (a huge value)
// is dropped so the pools' footprint stays small.
const scratchRetainMax = 4 << 10

// retained empties a scratch buffer for reuse, or drops it if it outgrew
// scratchRetainMax.
func retained(b []byte) []byte {
	if cap(b) > scratchRetainMax {
		return nil
	}
	return b[:0]
}

// bufferedWrite is one key's buffered put or delete: where its key and its
// latest value lie in the slab.
type bufferedWrite struct {
	key, keyEnd int
	val, valEnd int
	del         bool
	prev        int // older entry with the same key hash, -1 for none
}

// txnSeed keys the write buffers' hash index.
var txnSeed = maphash.MakeSeed()

// txnPool recycles transactions with their scratch: an invocation's txn
// carries no state worth keeping past close.
var txnPool = sync.Pool{New: func() any { return new(txn) }}

// openTxn takes a transaction from the pool; the snapshot is taken lazily
// at the first read so it always postdates the scheduler admission. The
// caller must close() it exactly once.
func openTxn(db *store.DB) *txn {
	t := txnPool.Get().(*txn)
	t.db = db
	return t
}

// ensureSnap pins the read snapshot on first use.
func (t *txn) ensureSnap() {
	if !t.pinned {
		t.db.Pin(&t.snap)
		t.pinned = true
	}
}

// close releases the snapshot and recycles the txn, keeping the write
// buffer if it did not outgrow what is worth pooling.
func (t *txn) close() {
	t.reset()
	t.db = nil
	txnPool.Put(t)
}

// dropWrites empties the write buffer for reuse, or drops the parts that
// grew large: a cleared map keeps (and every later clear walks) all its
// buckets.
func (t *txn) dropWrites() {
	if len(t.writes) > scratchRetainMax/32 {
		t.writes, t.index, t.order = nil, nil, nil
	}
	clear(t.index)
	t.slab, t.writes = retained(t.slab), t.writes[:0]
	t.out.Reset()
}

// find returns the index in t.writes of key's buffered write, -1 if it has
// none, and key's hash.
func (t *txn) find(key []byte) (int, uint64) {
	h := maphash.Bytes(txnSeed, key)
	i, ok := t.index[h]
	if !ok {
		return -1, h
	}
	for ; i >= 0; i = t.writes[i].prev {
		if bytes.Equal(t.keyAt(i), key) {
			return i, h
		}
	}
	return -1, h
}

// keyAt returns the key of the i-th buffered write. It aliases the slab:
// valid, like valueAt's result, until the transaction ends.
func (t *txn) keyAt(i int) []byte {
	w := &t.writes[i]
	return t.slab[w.key:w.keyEnd:w.keyEnd]
}

func (t *txn) valueAt(i int) []byte {
	w := &t.writes[i]
	return t.slab[w.val:w.valEnd:w.valEnd]
}

// get reads key, appending a live value to dst and returning the extended
// slice (dst itself when the key is absent): buffered writes win over the
// snapshot.
func (t *txn) get(dst, key []byte) (val []byte, present bool, err error) {
	if i, _ := t.find(key); i >= 0 {
		if t.writes[i].del {
			return dst, false, nil
		}
		return append(dst, t.valueAt(i)...), true, nil
	}
	t.ensureSnap()
	return t.snap.GetInto(dst, key)
}

// put buffers a write, copying key and value.
func (t *txn) put(key, value []byte) { t.buffer(key, value, false) }

// del buffers a delete.
func (t *txn) del(key []byte) { t.buffer(key, nil, true) }

func (t *txn) buffer(key, value []byte, del bool) {
	i, h := t.find(key)
	if i < 0 {
		if t.index == nil {
			t.index = make(map[uint64]int)
		}
		prev, ok := t.index[h]
		if !ok {
			prev = -1
		}
		i = len(t.writes)
		t.index[h] = i
		t.writes = append(t.writes, bufferedWrite{key: len(t.slab), keyEnd: len(t.slab) + len(key), prev: prev})
		t.slab = append(t.slab, key...)
	}
	w := &t.writes[i]
	w.val, w.valEnd, w.del = len(t.slab), len(t.slab)+len(value), del
	t.slab = append(t.slab, value...)
}

// dirty reports whether the transaction holds uncommitted writes.
func (t *txn) dirty() bool { return len(t.writes) > 0 }

// sorted returns the buffered writes whose keys start with prefix, as
// indices into t.writes in key order. The result is scratch: valid until
// the next call.
func (t *txn) sorted(prefix []byte) []int {
	t.order = t.order[:0]
	for i := range t.writes {
		if bytes.HasPrefix(t.keyAt(i), prefix) {
			t.order = append(t.order, i)
		}
	}
	slices.SortFunc(t.order, func(a, b int) int { return bytes.Compare(t.keyAt(a), t.keyAt(b)) })
	return t.order
}

// batch converts the buffered writes into an atomically appliable batch.
// The batch is the transaction's own and reused: the caller is done with it
// before the transaction buffers, resets or closes again — commit is, every
// consumer of a write-set (WAL, shipper, relay) encodes it before returning.
func (t *txn) batch() *store.Batch {
	t.out.Reset()
	// Key order makes replication streams and tests stable.
	for _, i := range t.sorted(nil) {
		if t.writes[i].del {
			t.out.Delete(t.keyAt(i))
		} else {
			t.out.Put(t.keyAt(i), t.valueAt(i))
		}
	}
	return &t.out
}

// reset clears buffered writes and drops the snapshot; the remainder of
// the method re-pins a fresh snapshot after it is re-admitted (paper §3.1
// treats the remainder as a separate invocation context). Deliberately not
// close(): the txn must stay out of txnPool until its deferred close, since
// the invocation keeps using it.
func (t *txn) reset() {
	t.snap.Release()
	t.pinned = false
	t.dropWrites()
}

// scan iterates all live keys with the given prefix in order, merging
// buffered writes with the snapshot. fn returns false to stop early; it
// gets slices of the slab and the snapshot, and must not scan in turn.
func (t *txn) scan(prefix []byte, fn func(key, value []byte) bool) error {
	t.ensureSnap()
	it, err := t.snap.NewIterator()
	if err != nil {
		return err
	}
	defer it.Close()

	buffered := t.sorted(prefix)
	bi := 0

	it.Seek(prefix)
	for {
		var snapKey []byte
		if it.Valid() && bytes.HasPrefix(it.Key(), prefix) {
			snapKey = it.Key()
		}
		var bufKey []byte
		haveBuf := bi < len(buffered)
		if haveBuf {
			bufKey = t.keyAt(buffered[bi])
		}
		switch {
		case snapKey == nil && !haveBuf:
			return it.Error()
		case snapKey == nil || (haveBuf && bytes.Compare(bufKey, snapKey) <= 0):
			// Buffered entry wins (and shadows an equal snapshot key).
			if haveBuf && snapKey != nil && bytes.Equal(bufKey, snapKey) {
				it.Next()
			}
			i := buffered[bi]
			bi++
			if !t.writes[i].del {
				if !fn(bufKey, t.valueAt(i)) {
					return nil
				}
			}
		default:
			if !fn(snapKey, it.Value()) {
				return nil
			}
			it.Next()
		}
	}
}
