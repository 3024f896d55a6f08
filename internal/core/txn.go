package core

import (
	"sort"
	"strings"
	"sync"

	"lambdastore/internal/store"
)

// txn is an invocation's private view of its object's state: a write
// buffer layered over a consistent storage snapshot. All mutations stay in
// the buffer until commit, giving the atomicity and isolation halves of
// invocation linearizability.
type txn struct {
	db   *store.DB
	snap *store.Snapshot // created lazily on first read (after admission)

	// writes maps key -> buffered write, made by the first put or del (most
	// invocations are reads and never buffer one). A nil-value entry with
	// del=true is a buffered delete.
	writes map[string]bufferedWrite
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

type bufferedWrite struct {
	value []byte
	del   bool
}

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
	if t.snap == nil {
		t.snap = t.db.GetSnapshot()
	}
}

// close releases the snapshot and recycles the txn, keeping the write
// buffer if it did not outgrow what is worth pooling.
func (t *txn) close() {
	if t.snap != nil {
		t.snap.Release()
	}
	t.dropWrites()
	*t = txn{writes: t.writes}
	txnPool.Put(t)
}

// dropWrites empties the write buffer for reuse, or drops it if it grew
// large: a cleared map keeps (and every later clear walks) all its buckets.
func (t *txn) dropWrites() {
	if len(t.writes) > scratchRetainMax/32 {
		t.writes = nil
	}
	clear(t.writes)
}

// get reads key, appending a live value to dst and returning the extended
// slice (dst itself when the key is absent): buffered writes win over the
// snapshot.
func (t *txn) get(dst, key []byte) (val []byte, present bool, err error) {
	if w, ok := t.writes[string(key)]; ok {
		if w.del {
			return dst, false, nil
		}
		return append(dst, w.value...), true, nil
	}
	t.ensureSnap()
	return t.snap.GetInto(dst, key)
}

// put buffers a write.
func (t *txn) put(key, value []byte) {
	if t.writes == nil {
		t.writes = make(map[string]bufferedWrite)
	}
	t.writes[string(key)] = bufferedWrite{value: append([]byte(nil), value...)}
}

// del buffers a delete.
func (t *txn) del(key []byte) {
	if t.writes == nil {
		t.writes = make(map[string]bufferedWrite)
	}
	t.writes[string(key)] = bufferedWrite{del: true}
}

// dirty reports whether the transaction holds uncommitted writes.
func (t *txn) dirty() bool { return len(t.writes) > 0 }

// batch converts the buffered writes into an atomically appliable batch.
func (t *txn) batch() *store.Batch {
	b := store.NewBatch()
	// Deterministic order makes replication streams and tests stable.
	keys := make([]string, 0, len(t.writes))
	for k := range t.writes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w := t.writes[k]
		if w.del {
			b.Delete([]byte(k))
		} else {
			b.Put([]byte(k), w.value)
		}
	}
	return b
}

// reset clears buffered writes and drops the snapshot; the remainder of
// the method re-pins a fresh snapshot after it is re-admitted (paper §3.1
// treats the remainder as a separate invocation context). Deliberately not
// close(): the txn must stay out of txnPool until its deferred close, since
// the invocation keeps using it.
func (t *txn) reset() {
	if t.snap != nil {
		t.snap.Release()
		t.snap = nil
	}
	t.dropWrites()
}

// scan iterates all live keys with the given prefix in order, merging
// buffered writes with the snapshot. fn returns false to stop early.
func (t *txn) scan(prefix []byte, fn func(key, value []byte) bool) error {
	t.ensureSnap()
	it, err := t.snap.NewIterator()
	if err != nil {
		return err
	}
	defer it.Close()

	// Buffered keys under the prefix, sorted.
	var buffered []string
	for k := range t.writes {
		if strings.HasPrefix(k, string(prefix)) {
			buffered = append(buffered, k)
		}
	}
	sort.Strings(buffered)
	bi := 0

	it.Seek(prefix)
	for {
		var snapKey []byte
		if it.Valid() && strings.HasPrefix(string(it.Key()), string(prefix)) {
			snapKey = it.Key()
		}
		var bufKey string
		haveBuf := bi < len(buffered)
		if haveBuf {
			bufKey = buffered[bi]
		}
		switch {
		case snapKey == nil && !haveBuf:
			return it.Error()
		case snapKey == nil || (haveBuf && bufKey <= string(snapKey)):
			// Buffered entry wins (and shadows an equal snapshot key).
			if haveBuf && snapKey != nil && bufKey == string(snapKey) {
				it.Next()
			}
			w := t.writes[bufKey]
			bi++
			if !w.del {
				if !fn([]byte(bufKey), w.value) {
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
