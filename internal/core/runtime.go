package core

import (
	"errors"
	"fmt"
	"sort"
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

// CommitHook observes every committed mutating invocation: the trace
// context of the committing request (zero when untraced), the object, the
// store sequence assigned to the first record of the write-set, and the
// write-set itself. Primary-backup replication ships these to backups in
// sequence order, propagating the trace so backup apply spans join the
// caller's trace.
//
// A non-nil error fails the invocation's acknowledgement: the write-set is
// already durable locally, but the reply is withheld (paper §4.2.1 — the
// write-set reaches every backup "before the invocation reply is
// released", so a failover never loses an acknowledged write). Callers see
// the error and retry; the state machine tolerates the resulting
// at-least-once re-execution.
//
// writeSet is the committing transaction's own batch, reused by its next
// commit: the hook encodes what it needs of it before returning.
type CommitHook func(ctx telemetry.SpanContext, obj ObjectID, seq uint64, writeSet *store.Batch) error

// Options configures a Runtime.
type Options struct {
	// Fuel is the execution budget per method invocation; <=0 means
	// unmetered.
	Fuel int64
	// Cache enables the consistent result cache with the given capacity;
	// 0 disables caching.
	CacheEntries int
	// Clock supplies the time host call; nil means time.Now-based.
	Clock func() int64
	// Invoker routes cross-object invocations; nil routes everything to
	// this runtime (single-node).
	Invoker Invoker
	// OnCommit, if set, observes committed write-sets (for replication).
	OnCommit CommitHook
	// LockTimeout bounds scheduler admission (default 10s).
	LockTimeout time.Duration
	// DisableScheduler removes per-object admission control (ablation A4
	// uses this to show why the combined scheduler/concurrency-control
	// matters; with it disabled, invocation isolation is lost).
	DisableScheduler bool
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

	mu    sync.RWMutex
	types map[string]*ObjectType
	// objTypes caches object -> type bindings (immutable once created).
	objTypes sync.Map // ObjectID -> *ObjectType

	// hot tracks per-object invocation counts in bounded memory — the
	// load signal behind hot-microshard rebalancing (the paper's
	// elasticity future work, now the rebalancer's sampling source).
	hot *hotTracker

	// metrics holds pre-resolved instruments so hot paths never touch the
	// registry mutex.
	metrics *rtMetrics
	tracer  *telemetry.Tracer
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
		db:   db,
		opts: opts,
		hot:  newHotTracker(),
	}
	if opts.Fuel == 0 {
		rt.opts.Fuel = DefaultFuel
	}
	rt.tracer = opts.Tracer
	rt.metrics = newRTMetrics(opts.Metrics)
	rt.pool = NewInstancePool(rt.opts.Fuel, opts.Metrics, rt.tracer)
	rt.locks = sched.NewTable()
	if opts.LockTimeout > 0 {
		rt.locks.Timeout = opts.LockTimeout
	}
	if opts.CacheEntries > 0 {
		rt.cache = cache.NewSharded(opts.CacheEntries, cache.DefaultShards, opts.Metrics)
	}
	if rt.opts.Clock == nil {
		rt.opts.Clock = func() int64 { return time.Now().UnixNano() }
	}
	if rt.opts.Invoker == nil {
		rt.opts.Invoker = rt
	}
	var err error
	if rt.types, err = rt.readTypes(); err != nil {
		return nil, err
	}
	return rt, nil
}

// DB exposes the underlying store (replication and migration need raw
// access).
func (rt *Runtime) DB() *store.DB { return rt.db }

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
// installed set. Anti-entropy recovery calls it after syncing the meta
// range from a donor, making types that were deployed during the
// node's downtime dispatchable without a restart.
func (rt *Runtime) ReloadTypes() error {
	fresh, err := rt.readTypes()
	if err != nil {
		return err
	}
	rt.mu.Lock()
	for name, old := range rt.types {
		if nw, ok := fresh[name]; !ok || nw.Module != old.Module {
			rt.pool.drop(old.Module)
		}
	}
	rt.types = fresh
	rt.mu.Unlock()
	// Bindings may point at replaced *ObjectType values; re-resolve lazily.
	rt.objTypes.Range(func(k, v any) bool {
		rt.objTypes.Delete(k)
		return true
	})
	return nil
}

// RegisterType persists and installs an object type. Re-registering a name
// replaces the previous definition (a deployment of new code).
func (rt *Runtime) RegisterType(t *ObjectType) error {
	if err := t.init(); err != nil {
		return err
	}
	if err := rt.db.Put(typeKey(t.Name), t.Encode()); err != nil {
		return err
	}
	rt.mu.Lock()
	if old, ok := rt.types[t.Name]; ok && old.Module != t.Module {
		rt.pool.drop(old.Module)
	}
	rt.types[t.Name] = t
	rt.mu.Unlock()
	// Invalidate the object->type bindings; they are re-resolved lazily.
	rt.objTypes.Range(func(k, v any) bool {
		if v.(*ObjectType).Name == t.Name {
			rt.objTypes.Delete(k)
		}
		return true
	})
	return nil
}

// Type returns the installed type by name.
func (rt *Runtime) Type(name string) (*ObjectType, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	t, ok := rt.types[name]
	return t, ok
}

// CreateObject instantiates an object of the named type; cc carries the
// creating request's trace into the commit.
func (rt *Runtime) CreateObject(typeName string, id ObjectID, cc CallCtx) error {
	rt.mu.RLock()
	_, ok := rt.types[typeName]
	rt.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchType, typeName)
	}
	release, err := rt.locks.Acquire(uint64(id), sched.Write)
	if err != nil {
		return err
	}
	defer release()
	if _, err := rt.db.Get(headerKey(id)); err == nil {
		return fmt.Errorf("%w: %s", ErrExists, id)
	} else if !errors.Is(err, store.ErrNotFound) {
		return err
	}
	b := store.NewBatch()
	b.Put(headerKey(id), []byte(typeName))
	b.Put(versionKey(id), encodeU64(0))
	return rt.commit(cc.Trace, b, id)
}

// DeleteObject removes an object and all its state.
func (rt *Runtime) DeleteObject(id ObjectID, cc CallCtx) error {
	release, err := rt.locks.Acquire(uint64(id), sched.Write)
	if err != nil {
		return err
	}
	defer release()
	b := store.NewBatch()
	if err := rt.forEachObjectKey(id, func(key []byte) {
		b.Delete(append([]byte(nil), key...))
	}); err != nil {
		return err
	}
	if b.Empty() {
		return fmt.Errorf("%w: %s", ErrNoSuchObject, id)
	}
	err = rt.commit(cc.Trace, b, id)
	// Dropped even when the ack is withheld: the delete stands locally.
	rt.objTypes.Delete(id)
	return err
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

// ObjectExists reports whether id exists.
func (rt *Runtime) ObjectExists(id ObjectID) (bool, error) {
	_, err := rt.db.Get(headerKey(id))
	if err == nil {
		return true, nil
	}
	if errors.Is(err, store.ErrNotFound) {
		return false, nil
	}
	return false, err
}

// typeOf resolves an object's type, caching the binding.
func (rt *Runtime) typeOf(id ObjectID) (*ObjectType, error) {
	if v, ok := rt.objTypes.Load(id); ok {
		return v.(*ObjectType), nil
	}
	name, err := rt.db.Get(headerKey(id))
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchObject, id)
		}
		return nil, err
	}
	rt.mu.RLock()
	t, ok := rt.types[string(name)]
	rt.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (referenced by %s)", ErrNoSuchType, name, id)
	}
	rt.objTypes.Store(id, t)
	return t, nil
}

// ObjectVersion returns the object's committed version counter (number of
// committed mutating invocations).
func (rt *Runtime) ObjectVersion(id ObjectID) (uint64, error) {
	v, err := rt.db.Get(versionKey(id))
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return 0, fmt.Errorf("%w: %s", ErrNoSuchObject, id)
		}
		return 0, err
	}
	return decodeU64(v), nil
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

// Invoke runs a method on an object with invocation linearizability. It is
// the entry point for client jobs and for cross-object calls routed here.
func (rt *Runtime) Invoke(id ObjectID, method string, args [][]byte) ([]byte, error) {
	return rt.InvokeCtx(id, method, args, CallCtx{})
}

// InvokeCtx is Invoke with an explicit call context. It records the
// per-node "invoke" span (parented to the caller's span when the request is
// traced) and the per-method invocation metrics, then nests every stage
// span under it.
func (rt *Runtime) InvokeCtx(id ObjectID, method string, args [][]byte, cc CallCtx) ([]byte, error) {
	span := rt.tracer.StartSpan(cc.Trace, "invoke")
	if span.Recording() {
		cc.Trace = span.Context()
	}
	start := time.Now()
	result, err := rt.invokeCtx(id, method, args, cc)
	rt.metrics.invokeUs.RecordTraced(time.Since(start), cc.Trace.Trace)
	rt.metrics.methodCounter(method).Inc()
	span.FinishErr(err)
	return result, err
}

func (rt *Runtime) invokeCtx(id ObjectID, method string, args [][]byte, cc CallCtx) ([]byte, error) {
	typ, err := rt.typeOf(id)
	if err != nil {
		return nil, err
	}
	mi, ok := typ.Method(method)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, typ.Name, method)
	}

	// Inferred read-only methods (module analysis proved no reachable
	// mutating host call) take the same shared admission and commit-free
	// path as declared ones: the proof is static, so the write buffer is
	// never touched. Result caching stays declared-only — Deterministic
	// is a promise only the author can make.
	mode := sched.Write
	if mi.RoutableReadOnly() {
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
	// is still the one the cached execution read (§4.2.2).
	cacheable := mi.ReadOnly && mi.Deterministic && rt.cache != nil
	var argsHash, epoch uint64
	if cacheable {
		argsHash = cache.HashArgs(method, args)
		result, missEpoch, ok := rt.cache.LookupAt(uint64(id), method, argsHash, rt.committedHash)
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
	} else if rt.cache != nil {
		rt.cache.NoteBypass()
	}

	iv.txn = openTxn(rt.db)
	defer iv.txn.close()

	result, err := iv.run()
	if err != nil {
		return nil, err
	}

	if cacheable && !iv.nocache {
		if readSet := iv.versionReadSet(); readSet != nil {
			rt.cache.StoreAt(uint64(id), method, argsHash, result, readSet, epoch)
		}
	} else if cacheable {
		// Eligible by signature but poisoned at runtime (clock, randomness,
		// cross-calls): a bypass, not a miss.
		rt.cache.NoteBypass()
	}
	return result, nil
}

// versionReadSet is the read set of a finished cacheable invocation: its
// object's version key as the invocation's own snapshot sees it, which
// covers every read the method made, scans included (see package cache for
// the invariant). nil (store nothing) if the object has no version at the
// snapshot — deleted under the reader — or the read failed.
func (iv *invocation) versionReadSet() []cache.ReadDep {
	key := iv.fieldKey(subVersion, "")
	v, present, err := iv.txn.get(iv.val[:0], key)
	iv.val = v
	if err != nil || !present {
		return nil
	}
	return []cache.ReadDep{{Key: append([]byte(nil), key...), ValueHash: cache.HashValue(v, true)}}
}

// MethodRoutableReadOnly reports whether the named method of the object's
// type may execute at a backup replica: declared read-only, or proven
// read-only by module analysis at validation time. Unknown objects,
// types, or methods report false (the router then applies its normal
// primary-only rule and the primary surfaces the real error).
func (rt *Runtime) MethodRoutableReadOnly(id ObjectID, method string) bool {
	typ, err := rt.typeOf(id)
	if err != nil {
		return false
	}
	mi, ok := typ.Method(method)
	return ok && mi.RoutableReadOnly()
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
// CreateObject and DeleteObject: make the write-set durable (the "wal-sync"
// span, under a "commit" span covering the whole tail), then publish it with
// notifyCommit. ctx is the committing request's trace context (zero when
// untraced); the replication hook's spans parent under it, beside "commit".
// A failed write leaves nothing to publish.
func (rt *Runtime) commit(ctx telemetry.SpanContext, b *store.Batch, ids ...ObjectID) error {
	sp := rt.tracer.StartSpan(ctx, "commit")
	wsp := rt.tracer.StartSpan(sp.Context(), "wal-sync")
	err := rt.db.Write(b)
	wsp.FinishErr(err)
	if err == nil {
		err = rt.notifyCommit(ctx, b, ids...)
	}
	sp.FinishErr(err)
	return err
}

// notifyCommit is the one place a local commit becomes visible to the
// rest of the system: it counts one commit per object the write-set
// touched (a transaction's spans several), invalidates their cached
// results, and fires the replication hook once for the whole write-set,
// passing along the committing request's trace context. A hook error
// (backup did not acknowledge) propagates so the client ack is withheld;
// the local commit stands.
func (rt *Runtime) notifyCommit(ctx telemetry.SpanContext, b *store.Batch, ids ...ObjectID) error {
	for _, id := range ids {
		rt.metrics.commits.Inc()
		if rt.cache != nil {
			rt.cache.InvalidateObject(uint64(id))
		}
	}
	if rt.opts.OnCommit != nil {
		return rt.opts.OnCommit(ctx, ids[0], b.Seq(), b)
	}
	return nil
}

// HotObject is one entry of the per-object load ranking.
type HotObject struct {
	ID    ObjectID
	Count uint64
}

// HotWindow returns the n most-invoked objects of the current observation
// window and atomically starts a new one — the rebalancer's
// sample-and-reset primitive, so counts between samples are per-window
// rates rather than lifetime totals, and the signal elasticity decisions
// are made from: because objects are microshards, the hottest ones can be
// migrated individually. Counts come from a bounded Space-Saving tracker,
// so they are exact for the heavy hitters and slight over-estimates for
// objects that churned through the tracker's tail. Single-sampler
// contract: concurrent samplers would steal each other's windows.
func (rt *Runtime) HotWindow(n int) []HotObject { return rt.hot.window(n) }

// sortHot orders a ranking hottest first with a deterministic tie-break.
func sortHot(out []HotObject) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
}

// ApplyReplicated applies a write-set received from a primary, bypassing
// method execution (the backup path of §4.2.1: "the results of the
// computation are replicated").
func (rt *Runtime) ApplyReplicated(id ObjectID, b *store.Batch) error {
	if err := rt.db.Write(b); err != nil {
		return err
	}
	if rt.cache != nil {
		rt.cache.InvalidateObject(uint64(id))
	}
	// The write-set may have created or deleted the object; drop bindings.
	rt.objTypes.Delete(id)
	return nil
}

// mergedPool recycles ApplyReplicatedBulk's merged batches: the store has
// copied a batch into its memtable by the time Write returns.
var mergedPool = sync.Pool{New: func() any { return store.NewBatch() }}

// ApplyReplicatedBulk applies several replicated write-sets — the members
// of one coalesced replication frame, all for distinct objects — in a
// single storage commit: one WAL append, and with SyncWrites one fsync,
// for the whole frame. Per-object invalidation matches ApplyReplicated.
func (rt *Runtime) ApplyReplicatedBulk(objects []uint64, batches []*store.Batch) error {
	merged := mergedPool.Get().(*store.Batch)
	for _, b := range batches {
		merged.Append(b)
	}
	err := rt.db.Write(merged)
	merged.Reset()
	mergedPool.Put(merged)
	if err != nil {
		return err
	}
	for _, object := range objects {
		if rt.cache != nil {
			rt.cache.InvalidateObject(object)
		}
		rt.objTypes.Delete(ObjectID(object))
	}
	return nil
}

// --- direct state accessors (tools, tests, migration) ---

// GetValueField reads a value field's committed state.
func (rt *Runtime) GetValueField(id ObjectID, field string) ([]byte, error) {
	v, err := rt.db.Get(valueKey(id, field))
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

// GetMapEntry reads one map entry's committed state.
func (rt *Runtime) GetMapEntry(id ObjectID, field string, key []byte) ([]byte, error) {
	v, err := rt.db.Get(mapKey(id, field, key))
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

// ListLen reads a list field's committed length.
func (rt *Runtime) ListLen(id ObjectID, field string) (uint64, error) {
	v, err := rt.db.Get(listLenKey(id, field))
	if errors.Is(err, store.ErrNotFound) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return decodeU64(v), nil
}

// ListGet reads one committed list element.
func (rt *Runtime) ListGet(id ObjectID, field string, idx uint64) ([]byte, error) {
	v, err := rt.db.Get(listEntryKey(id, field, idx))
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}
