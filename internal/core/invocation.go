package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lambdastore/internal/sched"
	"lambdastore/internal/telemetry"
)

// maxInvocationDepth bounds synchronous nested-invocation chains that stay
// on this node (each level nests a guest call on the Go stack).
const maxInvocationDepth = 32

// invocation is the per-call execution context: the object under
// invocation, its private transaction, the staged cross-call state, and the
// result buffer. Host functions reach it through vm.Instance.Ctx.
//
// Scheduler interaction implements the paper's §3.1 segmentation: the
// invocation holds its object's admission while it accesses state, but a
// cross-object call first commits the buffered writes and RELEASES the
// admission — the remainder of the method is a separate invocation context
// that re-acquires on its next access. Because no admission is ever held
// across a nested call, mutually invoking objects (create_post fan-outs in
// both directions) cannot deadlock, which is how "invocation
// linearizability prevents aborts due to concurrency".
type invocation struct {
	// guest is what the host table sees (see hostapi.go); its Backend is
	// this invocation.
	guest
	rt    *Runtime
	txn   *txn
	depth int
	// trace is the invocation's own span context (zero when untraced);
	// stage spans and nested calls parent under it.
	trace telemetry.SpanContext

	mode    sched.Mode
	locked  bool
	release func()
	// external marks an invocation whose admissions and commit are managed
	// by an enclosing transaction (see transaction.go): run leaves the
	// shared buffer uncommitted and never releases locks it does not own.
	external bool

	// key and val are the host-call scratch, kept across invocations by
	// invocationPool (see the ownership rule in hostapi.go). key starts
	// with the object's key prefix, written once per invocation, followed
	// by the storage key built last; val holds the value read last.
	key []byte
	val []byte
}

var invocationPool = sync.Pool{New: func() any { return new(invocation) }}

// newInvocation takes an invocation context from the pool and binds it to
// one call; the caller must recycle() it when the call has returned.
func newInvocation(rt *Runtime, obj ObjectID, typ *ObjectType, method *MethodInfo, args [][]byte, cc CallCtx, mode sched.Mode) *invocation {
	iv := invocationPool.Get().(*invocation)
	iv.guest.bind(iv, obj, typ, method, args)
	iv.rt = rt
	iv.depth, iv.trace, iv.mode = cc.Depth, cc.Trace, mode
	iv.key = appendObjectPrefix(iv.key[:0], obj)
	return iv
}

// recycle returns the context to the pool, keeping only its scratch
// buffers and its guest's nested-call staging. Nothing may refer to the
// invocation afterwards: run has joined its parallel calls and detached it
// from the VM instance by then.
func (iv *invocation) recycle() {
	iv.guest.reset()
	*iv = invocation{guest: iv.guest, key: retained(iv.key), val: retained(iv.val)}
	invocationPool.Put(iv)
}

// The key builders encode a storage key of the invocation's object in the
// key scratch; the result is valid until the next key is built.

func (iv *invocation) fieldKey(sub byte, field string) []byte {
	iv.key = appendFieldKey(iv.key[:objectPrefixLen], sub, field)
	return iv.key
}

func (iv *invocation) MapEntryKey(field string, key []byte) []byte {
	iv.key = appendMapKey(iv.key[:objectPrefixLen], field, key)
	return iv.key
}

func (iv *invocation) ListEntryKey(field string, idx uint64) []byte {
	iv.key = appendListEntryKey(iv.key[:objectPrefixLen], field, idx)
	return iv.key
}

// ensureLocked (re-)admits the invocation on its object before a state
// access or commit.
func (iv *invocation) ensureLocked() error {
	if iv.locked || iv.external {
		return nil
	}
	sp := iv.rt.tracer.StartSpan(iv.trace, "lock-wait")
	start := time.Now()
	release, err := iv.rt.locks.Acquire(uint64(iv.obj), iv.mode)
	iv.rt.metrics.lockWaitUs.Record(time.Since(start))
	sp.FinishErr(err)
	if err != nil {
		return err
	}
	iv.locked = true
	iv.release = release
	return nil
}

// unlock drops the admission (end of a consistency segment).
func (iv *invocation) unlock() {
	if iv.external {
		return
	}
	if iv.locked && iv.release != nil {
		iv.release()
		iv.locked = false
		iv.release = nil
	}
}

// Transactional accessors: every state access is bracketed by admission.

// tGet reads key into the val scratch: the value is valid until the next
// tGet.
func (iv *invocation) tGet(key []byte) ([]byte, bool, error) {
	if err := iv.ensureLocked(); err != nil {
		return nil, false, err
	}
	v, present, err := iv.txn.get(iv.val[:0], key)
	iv.val = v
	return v, present, err
}

// tPutU64 buffers a counter write.
func (iv *invocation) tPutU64(key []byte, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return iv.tPut(key, b[:])
}

func (iv *invocation) tPut(key, value []byte) error {
	if err := iv.ensureLocked(); err != nil {
		return err
	}
	iv.txn.put(key, value)
	return nil
}

func (iv *invocation) tDel(key []byte) error {
	if err := iv.ensureLocked(); err != nil {
		return err
	}
	iv.txn.del(key)
	return nil
}

func (iv *invocation) tScan(prefix []byte, fn func(key, value []byte) bool) error {
	if err := iv.ensureLocked(); err != nil {
		return err
	}
	return iv.txn.scan(prefix, fn)
}

// The Backend the host table drives (hostapi.go), over the local
// transaction. What the aggregated design adds to plain storage access lives
// here: writes are buffered until commit, and a nested call first commits
// the caller and releases its admission.

var hostRandMu sync.Mutex
var hostRand = rand.New(rand.NewSource(0x1a3b5c7d))

func (iv *invocation) Now() int64 {
	return time.Now().UnixNano()
}

func (iv *invocation) Rand() int64 {
	hostRandMu.Lock()
	defer hostRandMu.Unlock()
	return hostRand.Int63()
}

// stateKey builds the storage key of a value field, a map entry (key) or a
// list element (idx) in the key scratch.
func (iv *invocation) stateKey(f *FieldDef, key []byte, idx uint64) []byte {
	switch f.Kind {
	case FieldValue:
		return iv.fieldKey(subValue, f.Name)
	case FieldMap:
		return iv.MapEntryKey(f.Name, key)
	}
	return iv.ListEntryKey(f.Name, idx)
}

func (iv *invocation) Get(f *FieldDef, key []byte, idx uint64) ([]byte, bool, error) {
	return iv.tGet(iv.stateKey(f, key, idx))
}

func (iv *invocation) Put(f *FieldDef, key, value []byte) error {
	return iv.tPut(iv.stateKey(f, key, 0), value)
}

func (iv *invocation) Del(f *FieldDef, key []byte) error {
	return iv.tDel(iv.stateKey(f, key, 0))
}

func (iv *invocation) Count(f *FieldDef) (int64, error) {
	var n int64
	err := iv.tScan(iv.MapEntryKey(f.Name, nil), func(k, v []byte) bool {
		n++
		return true
	})
	return n, err
}

func (iv *invocation) ListLen(f *FieldDef) (int64, error) {
	v, _, err := iv.tGet(iv.fieldKey(subListLen, f.Name))
	return int64(DecodeU64(v)), err
}

func (iv *invocation) ListPush(f *FieldDef, value []byte) error {
	cur, _, err := iv.tGet(iv.fieldKey(subListLen, f.Name))
	if err != nil {
		return err
	}
	n := DecodeU64(cur)
	if err := iv.tPut(iv.ListEntryKey(f.Name, n), value); err != nil {
		return err
	}
	return iv.tPutU64(iv.fieldKey(subListLen, f.Name), n+1)
}

// BeginCall realizes the paper's nested-call rule (§3.1): before a
// cross-object invocation, the caller's writes so far commit and the
// admission is released; the remainder of the caller proceeds as a fresh
// invocation context. So invoking any object — including this one — takes
// a fresh admission and cannot deadlock against the caller.
func (iv *invocation) BeginCall() error {
	if iv.external {
		return fmt.Errorf("%w: cross-object invoke (declare the call in the transaction instead)", ErrTxRestricted)
	}
	if iv.depth+1 >= maxInvocationDepth {
		return fmt.Errorf("core: invocation depth limit at %s", iv.obj)
	}
	if iv.txn.dirty() {
		if err := iv.commit(); err != nil {
			return err
		}
	}
	iv.txn.reset()
	iv.unlock()
	return nil
}

// Dispatch routes a nested invocation through the configured Invoker,
// carrying depth and trace across the hop.
func (iv *invocation) Dispatch(target ObjectID, method string, args [][]byte) ([]byte, error) {
	return iv.rt.opts.Invoker.InvokeCtx(target, method, args, CallCtx{Depth: iv.depth + 1, Trace: iv.trace})
}

// run executes the method body in a pooled VM instance and commits on
// success. The result it returns is the guest's staged copy, lent until iv
// recycles.
func (iv *invocation) run() ([]byte, error) {
	iv.rt.metrics.invocations.Inc()
	defer iv.unlock()

	if err := iv.rt.pool.exec(&iv.guest, iv.trace); err != nil {
		return nil, err
	}

	// An enclosing transaction owns commit. A read-only method never gets
	// here dirty: it can reach no host import that writes.
	if !iv.external && iv.txn.dirty() {
		if err := iv.commit(); err != nil {
			return nil, err
		}
	}
	return iv.result, nil
}

// commit atomically publishes the buffered write-set, bumping the object's
// version counter in the same batch (real-time visibility: the batch is
// durable and replicated before the reply).
func (iv *invocation) commit() error {
	if err := iv.ensureLocked(); err != nil {
		return err
	}
	// Re-verify existence under the admission: the object may have been
	// deleted or migrated away while this invocation waited for the lock
	// (the type binding alone is a cache and cannot be trusted here).
	if _, present, err := iv.tGet(iv.fieldKey(subHeader, "")); err != nil {
		return err
	} else if !present {
		return fmt.Errorf("%w: %s (deleted or migrated during invocation)", ErrNoSuchObject, iv.obj)
	}
	cur, _, err := iv.tGet(iv.fieldKey(subVersion, ""))
	if err != nil {
		return err
	}
	if err := iv.tPutU64(iv.fieldKey(subVersion, ""), DecodeU64(cur)+1); err != nil {
		return err
	}
	return iv.rt.commit(iv.trace, iv.txn.batch(), iv.obj)
}
