package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"lambdastore/internal/sched"
	"lambdastore/internal/telemetry"
)

// maxInvocationDepth bounds synchronous nested-invocation chains that stay
// on this node (each level nests the interpreter on the Go stack).
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
	rt     *Runtime
	obj    ObjectID
	typ    *ObjectType
	method *MethodInfo
	args   [][]byte
	txn    *txn
	depth  int
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

	result []byte
	// nocache poisons result caching when the method did something the
	// read-set cannot capture (clock, randomness, scans, cross-object
	// calls).
	nocache bool

	// pendingArgs accumulate via the call_arg host function and are
	// consumed by the next invoke/invoke_start.
	pendingArgs [][]byte
	asyncs      []*asyncCall

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
	iv.rt, iv.obj, iv.typ, iv.method, iv.args = rt, obj, typ, method, args
	iv.depth, iv.trace, iv.mode = cc.Depth, cc.Trace, mode
	iv.key = appendObjectPrefix(iv.key[:0], obj)
	return iv
}

// recycle returns the context to the pool, keeping only its scratch
// buffers. Nothing may refer to the invocation afterwards: run has joined
// its parallel calls and detached it from the VM instance by then.
func (iv *invocation) recycle() {
	*iv = invocation{key: retained(iv.key), val: retained(iv.val)}
	invocationPool.Put(iv)
}

// The key builders encode a storage key of the invocation's object in the
// key scratch; the result is valid until the next key is built.

func (iv *invocation) fieldKey(sub byte, field string) []byte {
	iv.key = appendFieldKey(iv.key[:objectPrefixLen], sub, field)
	return iv.key
}

func (iv *invocation) mapKey(field string, key []byte) []byte {
	iv.key = appendMapKey(iv.key[:objectPrefixLen], field, key)
	return iv.key
}

func (iv *invocation) listEntryKey(field string, idx uint64) []byte {
	iv.key = appendListEntryKey(iv.key[:objectPrefixLen], field, idx)
	return iv.key
}

// asyncCall is one in-flight parallel cross-object invocation (the paper's
// create_post fans store_post calls out "in parallel").
type asyncCall struct {
	done   chan struct{}
	result []byte
	err    error
}

// ensureLocked (re-)admits the invocation on its object before a state
// access or commit.
func (iv *invocation) ensureLocked() error {
	if iv.locked || iv.external || iv.rt.opts.DisableScheduler {
		return nil
	}
	sp := iv.rt.tracer.StartSpan(iv.trace, "lock-wait")
	m := iv.rt.metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	release, err := iv.rt.locks.Acquire(uint64(iv.obj), iv.mode)
	if m != nil {
		m.lockWaitUs.Record(time.Since(start))
	}
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

// run executes the method body in a pooled VM instance and commits on
// success.
func (iv *invocation) run() ([]byte, error) {
	iv.rt.invocations.Add(1)
	iv.rt.hot.touch(iv.obj)
	defer iv.unlock()

	inst, err := iv.rt.pool.get(iv.typ.Module, iv.method.Name)
	if err != nil {
		return nil, err
	}
	inst.Ctx = iv
	sp := iv.rt.tracer.StartSpan(iv.trace, "vm-exec")
	m := iv.rt.metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	fuelBefore := inst.FuelUsed()
	_, callErr := inst.Call(iv.method.Name)
	if m != nil {
		m.vmExecUs.Record(time.Since(start))
		if d := inst.FuelUsed() - fuelBefore; d > 0 {
			m.fuelUsed.Add(uint64(d))
		}
	}
	sp.FinishErr(callErr)
	iv.rt.pool.put(iv.typ.Module, iv.method.Name, inst)

	// Join any stragglers so goroutines never outlive the invocation.
	iv.waitAsyncs()

	if callErr != nil {
		return nil, fmt.Errorf("core: %s.%s on %s: %w", iv.typ.Name, iv.method.Name, iv.obj, callErr)
	}
	if iv.asyncErr() != nil {
		return nil, fmt.Errorf("core: %s.%s on %s: parallel call: %w", iv.typ.Name, iv.method.Name, iv.obj, iv.asyncErr())
	}

	if iv.external {
		// The enclosing transaction owns commit; a read-only member that
		// buffered writes is still an error.
		if iv.txn.dirty() && iv.method.ReadOnly && iv.ownWrites() {
			return nil, ErrReadOnly
		}
		return iv.result, nil
	}
	if iv.txn.dirty() {
		if iv.method.ReadOnly {
			return nil, ErrReadOnly
		}
		if err := iv.commit(); err != nil {
			return nil, err
		}
	}
	return iv.result, nil
}

// ownWrites reports whether this invocation's object has buffered writes
// (a heuristic used only for read-only enforcement inside transactions,
// where the buffer is shared).
func (iv *invocation) ownWrites() bool {
	prefix := string(objectPrefix(iv.obj))
	for k := range iv.txn.writes {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// commit atomically publishes the buffered write-set, bumping the object's
// version counter in the same batch (real-time visibility: the batch is
// durable and replicated before the reply).
func (iv *invocation) commit() error {
	sp := iv.rt.tracer.StartSpan(iv.trace, "commit")
	err := iv.commitUnder(sp.Context())
	sp.FinishErr(err)
	return err
}

// commitUnder is commit's body; ctx is the enclosing commit span (zero when
// untraced) under which the wal-sync span nests.
func (iv *invocation) commitUnder(ctx telemetry.SpanContext) error {
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
	if err := iv.tPutU64(iv.fieldKey(subVersion, ""), decodeU64(cur)+1); err != nil {
		return err
	}
	b := iv.txn.batch()
	wsp := iv.rt.tracer.StartSpan(ctx, "wal-sync")
	err = iv.rt.db.Write(b)
	wsp.FinishErr(err)
	if err != nil {
		return err
	}
	return iv.rt.notifyCommit(iv.trace, iv.obj, b)
}

// commitIntermediate realizes the paper's nested-call rule (§3.1): before a
// cross-object invocation, the caller's writes so far commit and the
// admission is released; the remainder of the caller proceeds as a fresh
// invocation context.
func (iv *invocation) commitIntermediate() error {
	if iv.txn.dirty() {
		if iv.method.ReadOnly {
			return ErrReadOnly
		}
		if err := iv.commit(); err != nil {
			return err
		}
	}
	iv.txn.reset()
	iv.unlock()
	return nil
}

// crossInvoke performs a synchronous nested invocation. The admission was
// released by commitIntermediate, so invoking any object — including this
// one — takes a fresh admission and cannot deadlock against the caller.
func (iv *invocation) crossInvoke(target ObjectID, method string, args [][]byte) ([]byte, error) {
	if iv.external {
		return nil, fmt.Errorf("%w: cross-object invoke (declare the call in the transaction instead)", ErrTxRestricted)
	}
	iv.nocache = true
	if iv.depth+1 >= maxInvocationDepth {
		return nil, fmt.Errorf("core: invocation depth limit at %s", iv.obj)
	}
	if err := iv.commitIntermediate(); err != nil {
		return nil, err
	}
	return iv.rt.dispatch(target, method, args, CallCtx{Depth: iv.depth + 1, Trace: iv.trace})
}

// startAsync launches a parallel cross-object invocation and returns its
// handle index.
func (iv *invocation) startAsync(target ObjectID, method string, args [][]byte) (int64, error) {
	if iv.external {
		return 0, fmt.Errorf("%w: cross-object invoke (declare the call in the transaction instead)", ErrTxRestricted)
	}
	iv.nocache = true
	if iv.depth+1 >= maxInvocationDepth {
		return 0, fmt.Errorf("core: invocation depth limit at %s", iv.obj)
	}
	if err := iv.commitIntermediate(); err != nil {
		return 0, err
	}
	ac := &asyncCall{done: make(chan struct{})}
	iv.asyncs = append(iv.asyncs, ac)
	handle := int64(len(iv.asyncs) - 1)
	cc := CallCtx{Depth: iv.depth + 1, Trace: iv.trace}
	go func() {
		defer close(ac.done)
		ac.result, ac.err = iv.rt.dispatch(target, method, args, cc)
	}()
	return handle, nil
}

// waitAsync joins one parallel call.
func (iv *invocation) waitAsync(handle int64) ([]byte, error) {
	if handle < 0 || handle >= int64(len(iv.asyncs)) {
		return nil, fmt.Errorf("core: bad async handle %d", handle)
	}
	ac := iv.asyncs[handle]
	<-ac.done
	return ac.result, ac.err
}

// waitAsyncs joins every outstanding parallel call.
func (iv *invocation) waitAsyncs() {
	for _, ac := range iv.asyncs {
		<-ac.done
	}
}

// asyncErr returns the first error among completed parallel calls.
func (iv *invocation) asyncErr() error {
	for _, ac := range iv.asyncs {
		if ac.err != nil {
			return ac.err
		}
	}
	return nil
}

// fieldOf resolves a field by name and checks its kind.
func (iv *invocation) fieldOf(name []byte, kind FieldKind) (*FieldDef, error) {
	f, ok := iv.typ.fieldIdx[string(name)] // no alloc: map lookup special case
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchField, iv.typ.Name, name)
	}
	if f.Kind != kind {
		return nil, fmt.Errorf("%w: field %s is %v, not %v", ErrWrongKind, f.Name, f.Kind, kind)
	}
	return f, nil
}

// requireMutable rejects writes from read-only methods.
func (iv *invocation) requireMutable() error {
	if iv.method.ReadOnly {
		return fmt.Errorf("%w: %s.%s", ErrReadOnly, iv.typ.Name, iv.method.Name)
	}
	return nil
}
