package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lambdastore/internal/cache"
	"lambdastore/internal/sched"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// Invoker routes a cross-object invocation, carrying the call context —
// nested-call depth and trace — across the hop. The Runtime itself is the
// single-node Invoker; cluster deployments install a router that forwards
// to the shard's primary over RPC (a remote hop resets the depth: the RPC
// boundary bounds recursion with timeouts instead).
type Invoker interface {
	InvokeCtx(id ObjectID, method string, args [][]byte, cc CallCtx) ([]byte, error)
}

// CommitHook observes every acknowledged commit: the committing request's
// trace context (zero when untraced), the object, the sequence of the
// write-set's first record and the write-set, by then durable and — through
// the store's group hook — on every backup (paper §4.2.1). A non-nil error
// withholds the ack; the client's retry is the at-least-once re-execution.
// writeSet is reused by the transaction's next commit.
type CommitHook func(ctx telemetry.SpanContext, obj ObjectID, seq uint64, writeSet *store.Batch) error

// Options configures a Runtime.
type Options struct {
	// Fuel is the execution budget per method invocation; <=0 means
	// DefaultFuel.
	Fuel int64
	// Cache enables the consistent result cache with the given capacity;
	// 0 disables caching.
	CacheEntries int
	// Invoker routes cross-object invocations; nil routes everything to
	// this runtime (single-node).
	Invoker Invoker
	// OnCommit, if set, observes acknowledged write-sets (a node's lease
	// barrier).
	OnCommit CommitHook
	// Caches, if set, is the result cache's admission: whether this runtime
	// looks up and keeps cacheable results of obj (a node's: only of the
	// objects it is the read replica of). Nil caches every object.
	Caches func(obj ObjectID) bool
	// Metrics, if set, publishes the runtime's counters and histograms
	// (invocations by method, fuel, cache and lock-wait behaviour) and
	// those of its warm pool and result cache.
	Metrics *telemetry.Registry
	// Tracer, if set, records per-stage spans (invoke, lock-wait, vm-exec,
	// commit, wal-sync) for traced invocations. A nil or disabled tracer
	// costs one predicted branch per stage.
	Tracer *telemetry.Tracer
}

// DefaultFuel is the per-invocation budget used by servers: generous for
// real methods, tight enough to stop runaway loops quickly.
const DefaultFuel = 16 << 20

// Runtime executes LambdaObject method invocations against a storage
// engine. It is safe for concurrent use.
type Runtime struct {
	db    *store.DB
	opts  Options
	pool  *InstancePool
	locks *sched.Table
	cache *cache.Cache

	// mu guards types, which only grows: a type a reload removed keeps its
	// slot, empty, so the bindings to it miss.
	mu    sync.RWMutex
	types map[string]*typeSlot

	// metrics holds pre-resolved instruments so hot paths never touch the
	// registry mutex.
	metrics *rtMetrics
	tracer  *telemetry.Tracer

	// bindings comes last, away from the fields every invocation reads.
	bindings bindings
}

// rtMetrics caches the runtime's instruments; resolved once at startup.
type rtMetrics struct {
	reg         *telemetry.Registry
	invocations *telemetry.Counter // method bodies run (cache hits excluded)
	invokeUs    *telemetry.Histogram
	lockWaitUs  *telemetry.Histogram
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	commits     *telemetry.Counter
	typeMisses  *telemetry.Counter // header reads of type resolution
	// methods maps method name -> per-method invocation counter
	// ("core.invoke.<method>"), cached so the hot path skips the registry.
	methods sync.Map
}

func newRTMetrics(reg *telemetry.Registry) *rtMetrics {
	return &rtMetrics{
		reg:         reg,
		invocations: reg.Counter("core.invocations"),
		invokeUs:    reg.Histogram("core.invoke"),
		lockWaitUs:  reg.Histogram("sched.lock_wait"),
		cacheHits:   reg.Counter("core.cache_hits"),
		cacheMisses: reg.Counter("core.cache_misses"),
		commits:     reg.Counter("core.commits"),
		typeMisses:  reg.Counter("core.type_misses"),
	}
}

// methodCounter returns the invocation counter for method, resolving it at
// most once per method name.
func (m *rtMetrics) methodCounter(method string) *telemetry.Counter {
	if c, ok := m.methods.Load(method); ok {
		return c.(*telemetry.Counter)
	}
	c := m.reg.Counter("core.invoke." + method)
	m.methods.Store(method, c)
	return c
}

// NewRuntime builds a runtime on db, loading persisted types.
func NewRuntime(db *store.DB, opts Options) (*Runtime, error) {
	rt := &Runtime{
		db:    db,
		opts:  opts,
		types: make(map[string]*typeSlot),
	}
	if opts.Fuel <= 0 {
		rt.opts.Fuel = DefaultFuel
	}
	rt.tracer = opts.Tracer
	rt.metrics = newRTMetrics(opts.Metrics)
	rt.pool = NewInstancePool(rt.opts.Fuel, opts.Metrics, rt.tracer)
	rt.locks = sched.NewTable()
	if opts.CacheEntries > 0 {
		rt.cache = cache.NewSharded(opts.CacheEntries, cache.DefaultShards, opts.Metrics)
	}
	if rt.opts.Invoker == nil {
		rt.opts.Invoker = rt
	}
	if err := rt.ReloadTypes(); err != nil {
		return nil, err
	}
	return rt, nil
}

// Cache returns the result cache, or nil if disabled.
func (rt *Runtime) Cache() *cache.Cache { return rt.cache }

// PoolStats returns (warm, cold) instance-start counts.
func (rt *Runtime) PoolStats() (warm, cold uint64) { return rt.pool.Stats() }

// readTypes decodes every persisted type record. A record that no longer
// decodes — or whose module no longer links against this build's host API —
// fails the read, naming the type.
func (rt *Runtime) readTypes() (map[string]*ObjectType, error) {
	types := make(map[string]*ObjectType)
	it, err := rt.db.NewIterator()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	prefix := []byte{keyPrefixType}
	for it.Seek(prefix); it.Valid(); it.Next() {
		k := it.Key()
		if len(k) == 0 || k[0] != keyPrefixType {
			break
		}
		t, err := DecodeObjectType(it.Value())
		if err != nil {
			return nil, fmt.Errorf("core: stored type %q: %w", k[1:], err)
		}
		types[t.Name] = t
	}
	return types, it.Error()
}

// ReloadTypes re-reads the persisted type records and replaces the
// installed set, slot by slot, so no binding needs re-resolving.
// Anti-entropy recovery calls it after syncing the meta range from a donor,
// making types that were deployed during the node's downtime dispatchable
// without a restart.
func (rt *Runtime) ReloadTypes() error {
	fresh, err := rt.readTypes()
	if err != nil {
		return err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for name := range rt.types {
		rt.installLocked(name, fresh[name])
	}
	for name, t := range fresh {
		rt.installLocked(name, t)
	}
	return nil
}

// installLocked makes t (nil: none) the definition in name's slot, dropping
// the warm instances of the module it replaces. Caller holds rt.mu.
func (rt *Runtime) installLocked(name string, t *ObjectType) {
	slot := rt.types[name]
	if slot == nil {
		slot = new(typeSlot)
		rt.types[name] = slot
	}
	if old := slot.t.Swap(t); old != nil && (t == nil || old.Module != t.Module) {
		rt.pool.drop(old.Module)
	}
}

// RegisterType persists and installs an object type. Re-registering a name
// replaces the previous definition (a deployment of new code).
func (rt *Runtime) RegisterType(t *ObjectType) error {
	if err := t.init(); err != nil {
		return err
	}
	if err := rt.db.Put(TypeRecordKey(t.Name), t.Encode()); err != nil {
		return err
	}
	rt.mu.Lock()
	rt.installLocked(t.Name, t)
	rt.mu.Unlock()
	return nil
}

// Type returns the installed type by name.
func (rt *Runtime) Type(name string) (*ObjectType, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if slot := rt.types[name]; slot != nil {
		t := slot.t.Load()
		return t, t != nil
	}
	return nil, false
}

// CreateObject instantiates an object of the named type; cc carries the
// creating request's trace into the commit.
func (rt *Runtime) CreateObject(typeName string, id ObjectID, cc CallCtx) error {
	if _, ok := rt.Type(typeName); !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchType, typeName)
	}
	release, err := rt.locks.Acquire(uint64(id), sched.Write)
	if err != nil {
		return err
	}
	defer release()
	if present, err := rt.header(id); err != nil {
		return err
	} else if present {
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	b := store.NewBatch()
	b.Put(HeaderKey(id), []byte(typeName))
	b.Put(VersionKey(id), EncodeU64(0))
	return rt.commit(cc.Trace, b, id)
}

// DeleteObject removes an object and all its state.
func (rt *Runtime) DeleteObject(id ObjectID, cc CallCtx) error {
	release, err := rt.locks.Acquire(uint64(id), sched.Write)
	if err != nil {
		return err
	}
	defer release()
	// A marked header is the mark's to keep.
	if present, err := rt.header(id); err != nil {
		return err
	} else if !present {
		return fmt.Errorf("%w: %s", ErrNoSuchObject, id)
	}
	b := store.NewBatch()
	if err := rt.forEachObjectKey(id, func(key []byte) {
		b.Delete(append([]byte(nil), key...))
	}); err != nil {
		return err
	}
	return rt.commit(cc.Trace, b, id)
}

// forEachObjectKey visits every live key of an object.
func (rt *Runtime) forEachObjectKey(id ObjectID, fn func(key []byte)) error {
	it, err := rt.db.NewIterator()
	if err != nil {
		return err
	}
	defer it.Close()
	prefix := objectPrefix(id)
	for it.Seek(prefix); it.Valid(); it.Next() {
		k := it.Key()
		if len(k) < len(prefix) || string(k[:len(prefix)]) != string(prefix) {
			break
		}
		fn(k)
	}
	return it.Error()
}

// header reads whether id's committed header names a type: false when it
// is absent, MovedError when it holds a move's mark.
func (rt *Runtime) header(id ObjectID) (present bool, err error) {
	v, err := rt.db.Get(HeaderKey(id))
	if errors.Is(err, store.ErrNotFound) {
		return false, nil
	}
	if err == nil {
		err = moved(id, v)
	}
	return err == nil, err
}

// ObjectExists reports whether id exists here; a moved object does not.
func (rt *Runtime) ObjectExists(id ObjectID) (bool, error) {
	present, err := rt.header(id)
	if errors.As(err, new(*MovedError)) {
		return false, nil
	}
	return present, err
}

// ObjectVersion returns the object's committed version counter (number of
// committed mutating invocations).
func (rt *Runtime) ObjectVersion(id ObjectID) (uint64, error) {
	v, err := rt.db.Get(VersionKey(id))
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return 0, fmt.Errorf("%w: %s", ErrNoSuchObject, id)
		}
		return 0, err
	}
	return DecodeU64(v), nil
}

// LockObject takes an exclusive admission on an object, pausing its
// invocations; migration uses it to quiesce a microshard while copying it.
func (rt *Runtime) LockObject(id ObjectID) (release func(), err error) {
	return rt.locks.Acquire(uint64(id), sched.Write)
}

// CallCtx carries per-call metadata across invocation hops: the nested-call
// depth and the caller's trace context (zero when untraced).
type CallCtx struct {
	Depth int
	Trace telemetry.SpanContext
}

// Invoke runs a method on an object with invocation linearizability and
// returns bytes the caller may keep.
func (rt *Runtime) Invoke(id ObjectID, method string, args [][]byte) ([]byte, error) {
	return rt.InvokeCtx(id, method, args, CallCtx{})
}

// InvokeCtx is Invoke with an explicit call context: the entry point for
// cross-object calls routed here, whose results their callers keep.
func (rt *Runtime) InvokeCtx(id ObjectID, method string, args [][]byte, cc CallCtx) ([]byte, error) {
	var buf []byte
	return rt.InvokeTo(&buf, id, method, args, cc)
}

// InvokeTo is InvokeCtx building the result in memory the caller lends: the
// result is appended to *buf, which is left grown to hold it, and returned
// as that tail. So *buf only ever holds memory the caller handed in or
// append grew from it, and the caller may keep it as scratch for its next
// call. InvokeTo records
// the per-node "invoke" span (parented to the caller's span when the request
// is traced) and the per-method invocation metrics, then nests every stage
// span under it.
func (rt *Runtime) InvokeTo(buf *[]byte, id ObjectID, method string, args [][]byte, cc CallCtx) ([]byte, error) {
	span := rt.tracer.StartSpan(cc.Trace, "invoke")
	if span.Recording() {
		cc.Trace = span.Context()
	}
	start := time.Now()
	result, err := rt.invokeCtx(buf, id, method, args, cc)
	rt.metrics.invokeUs.RecordTraced(time.Since(start), cc.Trace.Trace)
	rt.metrics.methodCounter(method).Inc()
	span.FinishErr(err)
	return result, err
}

func (rt *Runtime) invokeCtx(buf *[]byte, id ObjectID, method string, args [][]byte, cc CallCtx) ([]byte, error) {
	typ, err := rt.typeOf(id)
	if err != nil {
		return nil, err
	}
	mi, ok := typ.Method(method)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, typ.Name, method)
	}

	// A read-only method (no reachable host import writes) takes a shared
	// admission: the proof is static, so it never touches the write buffer.
	mode := sched.Write
	if mi.ReadOnly() {
		mode = sched.Read
	}
	iv := newInvocation(rt, id, typ, mi, args, cc, mode)
	defer iv.recycle()
	// Admit before the cache lookup so validation reads cannot interleave
	// with a writer on this object.
	if err := iv.ensureLocked(); err != nil {
		return nil, err
	}

	// Consistent result cache: hit only if the object's committed version
	// is still the one the cached execution read (§4.2.2). A runtime that
	// does not cache the object's results runs the guest, counts a miss
	// and keeps nothing.
	cacheable := mi.Cacheable() && rt.cache != nil && (rt.opts.Caches == nil || rt.opts.Caches(id))
	var argsHash, epoch uint64
	if cacheable {
		argsHash = cache.HashArgs(method, args)
		result, missEpoch, ok := rt.cache.LookupAt(buf, uint64(id), argsHash, iv.fieldKey(subVersion, ""), rt.committedHash)
		if ok {
			iv.unlock()
			rt.metrics.cacheHits.Inc()
			// A traced hit records a zero-width-ish "cache-hit" span so
			// the assembled critical path shows the invoke was served
			// from the consistent result cache rather than the VM.
			rt.tracer.StartSpan(cc.Trace, "cache-hit").Finish()
			return result, nil
		}
		epoch = missEpoch
		rt.metrics.cacheMisses.Inc()
	} else if rt.cache != nil && mi.Cacheable() {
		rt.metrics.cacheMisses.Inc()
	} else if rt.cache != nil {
		rt.cache.NoteBypass()
	}

	iv.txn = openTxn(rt.db)
	defer iv.txn.close()

	// result is the invocation's staged copy, lent until iv recycles.
	result, err := iv.run()
	if err != nil {
		return nil, err
	}

	if cacheable {
		// The cache copies the result, and keeps the version's hash, into a
		// slab slot it evicted or freed and the buffer that slot kept; the
		// version key it validates against is the next lookup's, built in
		// that invocation's scratch.
		if h, ok := iv.versionHash(); ok {
			rt.cache.StoreAt(uint64(id), argsHash, result, h, epoch)
		}
	}
	start := len(*buf)
	*buf = append(*buf, result...)
	return (*buf)[start:], nil
}

// versionHash is the read set of a finished cacheable invocation: the hash
// of its object's version as the invocation's own snapshot sees it, which
// covers every read the method made, scans included (see package cache for
// the invariant). ok is false (store nothing) if the object has no version
// at the snapshot — deleted under the reader — or the read failed.
func (iv *invocation) versionHash() (h uint64, ok bool) {
	v, present, err := iv.txn.get(iv.val[:0], iv.fieldKey(subVersion, ""))
	iv.val = v
	if err != nil || !present {
		return 0, false
	}
	return cache.HashValue(v, true), true
}

// MethodReadOnly reports whether the named method of the object's type is
// read-only, and so may execute at a leased backup. Unknown objects, types
// or methods report false: the router then sends the request to the
// primary, which surfaces the real error.
func (rt *Runtime) MethodReadOnly(id ObjectID, method string) bool {
	typ, err := rt.typeOf(id)
	if err != nil {
		return false
	}
	mi, ok := typ.Method(method)
	return ok && mi.ReadOnly()
}

// committedHash fingerprints the current committed value of key (cache
// validation); ok is false when the read failed, which must not validate
// anything.
func (rt *Runtime) committedHash(key []byte) (h uint64, ok bool) {
	// VisitLatest hashes the committed value in place — validation never
	// needs a copy of it.
	err := rt.db.VisitLatest(key, func(v []byte, present bool) {
		h = cache.HashValue(v, present)
	})
	return h, err == nil
}

// commit is the one commit tail, shared by an invocation, a transaction,
// CreateObject and DeleteObject: write the write-set, which its write group
// makes durable and replicates (the "wal-sync" span, under a "commit" span
// covering the whole tail; the group's spans parent under ctx, or under the
// "commit" span when ctx carries no trace, so an untraced write is one
// trace from its commit to its backups), publish it — even if the group
// hook withheld its ack — then ask OnCommit.
func (rt *Runtime) commit(ctx telemetry.SpanContext, b *store.Batch, ids ...ObjectID) error {
	sp := rt.tracer.StartSpan(ctx, "commit")
	wsp := rt.tracer.StartSpan(sp.Context(), "wal-sync")
	if ctx.Valid() {
		b.Replicate(uint64(ids[0]), ctx)
	} else {
		b.Replicate(uint64(ids[0]), sp.Context())
	}
	applied, err := rt.write(b)
	wsp.FinishErr(err)
	if applied {
		// Publish it: count one commit per object the write-set touched (a
		// transaction's spans several) and invalidate their cached results.
		for _, id := range ids {
			rt.metrics.commits.Inc()
			if rt.cache != nil {
				rt.cache.InvalidateObject(uint64(id))
			}
		}
	}
	if err == nil && rt.opts.OnCommit != nil {
		err = rt.opts.OnCommit(ctx, ids[0], b.Seq(), b)
	}
	sp.FinishErr(err)
	return err
}

// written reads a db.Write error: applied is true when the batches are in
// the store — also when the group hook withheld the ack, whose error it
// unwraps.
func written(err error) (applied bool, _ error) {
	if withheld, ok := err.(*store.HookError); ok {
		return true, withheld.Err
	}
	return err == nil, err
}

// ApplyReplicated applies a write-set of id that state transfer moved here
// (chunks and relays), bypassing method execution. Its write group ships
// and relays it like a commit's.
func (rt *Runtime) ApplyReplicated(id ObjectID, b *store.Batch) error {
	b.Replicate(uint64(id), telemetry.SpanContext{})
	applied, err := rt.write(b)
	if applied {
		rt.dropCached(uint64(id))
	}
	return err
}

// ApplyReplicatedBulk applies the members of one replication frame — the
// write-sets of distinct objects — as one storage writer: one WAL append,
// and with SyncWrites one fsync. It never ships.
func (rt *Runtime) ApplyReplicatedBulk(objects []uint64, batches []*store.Batch) error {
	applied, err := rt.write(batches...)
	if applied {
		for _, object := range objects {
			rt.dropCached(object)
		}
	}
	return err
}

// dropCached forgets an object's cached results. Its binding is the write
// path's to keep (write).
func (rt *Runtime) dropCached(object uint64) {
	if rt.cache != nil {
		rt.cache.InvalidateObject(object)
	}
}

// --- direct state accessors (tools, tests, migration) ---

// GetValueField reads a value field's committed state.
func (rt *Runtime) GetValueField(id ObjectID, field string) ([]byte, error) {
	v, err := rt.db.Get(ValueFieldKey(id, field))
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

// GetMapEntry reads one map entry's committed state.
func (rt *Runtime) GetMapEntry(id ObjectID, field string, key []byte) ([]byte, error) {
	v, err := rt.db.Get(MapEntryKey(id, field, key))
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

// ListLen reads a list field's committed length.
func (rt *Runtime) ListLen(id ObjectID, field string) (uint64, error) {
	v, err := rt.db.Get(ListLenKey(id, field))
	if errors.Is(err, store.ErrNotFound) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return DecodeU64(v), nil
}

// ListGet reads one committed list element.
func (rt *Runtime) ListGet(id ObjectID, field string, idx uint64) ([]byte, error) {
	v, err := rt.db.Get(ListEntryKey(id, field, idx))
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}
