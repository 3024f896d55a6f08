package core

import (
	"fmt"
	"sort"

	"lambdastore/internal/sched"
)

// The paper leaves "serializable transactions spanning multiple function
// calls" as future work (§3.1, §7), noting that "embedding execution into
// the database itself allows using proven transaction processing protocols
// from existing database management systems". This file implements exactly
// that: a transaction is a declared list of method calls whose objects are
// locked up front in ID order (deadlock-free strict two-phase locking);
// all calls execute against one shared write buffer over one snapshot, and
// the combined write-set commits atomically. Because methods can only
// access their own object's fields, the declared object set is the exact
// lock footprint — the property that makes 2PL trivially safe here.

// TxCall is one method invocation inside a transaction.
type TxCall struct {
	Object ObjectID
	Method string
	Args   [][]byte
}

// ErrTxRestricted is returned when a transactional method performs an
// operation transactions do not support (cross-object invocation — the
// transaction's call list is the whole graph).
var ErrTxRestricted = fmt.Errorf("core: operation not allowed inside a transaction")

// InvokeTransactionCtx executes calls as one serializable unit: either
// every call's writes commit atomically, or (on any trap or error) none do.
// Locks on all involved objects are held from start to commit, so the
// transaction is serializable with respect to all other invocations and
// transactions. It records a "tx" span (parented to the caller when
// traced) and its member invocations nest their stage spans beneath it.
func (rt *Runtime) InvokeTransactionCtx(calls []TxCall, cc CallCtx) ([][]byte, error) {
	span := rt.tracer.StartSpan(cc.Trace, "tx")
	if span.Recording() {
		cc.Trace = span.Context()
	}
	results, err := rt.invokeTransactionCtx(calls, cc)
	span.FinishErr(err)
	return results, err
}

func (rt *Runtime) invokeTransactionCtx(calls []TxCall, cc CallCtx) ([][]byte, error) {
	if len(calls) == 0 {
		return nil, nil
	}

	// Resolve and validate every call before taking any locks.
	type resolved struct {
		typ *ObjectType
		mi  *MethodInfo
	}
	rcalls := make([]resolved, len(calls))
	for i, c := range calls {
		typ, err := rt.typeOf(c.Object)
		if err != nil {
			return nil, err
		}
		mi, ok := typ.Method(c.Method)
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, typ.Name, c.Method)
		}
		rcalls[i] = resolved{typ: typ, mi: mi}
	}

	// Lock the object set in ascending ID order: no lock cycles possible.
	objSet := make(map[ObjectID]struct{}, len(calls))
	for _, c := range calls {
		objSet[c.Object] = struct{}{}
	}
	objs := make([]ObjectID, 0, len(objSet))
	for o := range objSet {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })

	var releases []func()
	defer func() {
		for i := len(releases) - 1; i >= 0; i-- {
			releases[i]()
		}
	}()
	for _, o := range objs {
		release, err := rt.locks.Acquire(uint64(o), sched.Write)
		if err != nil {
			return nil, err
		}
		releases = append(releases, release)
	}
	// Resolved again under the admissions, held through the commit: each
	// object may have been deleted or frozen by a move meanwhile.
	for _, o := range objs {
		if _, err := rt.typeOf(o); err != nil {
			return nil, err
		}
	}

	// One shared buffer over one snapshot: calls see each other's writes,
	// nothing outside sees any of them until commit.
	shared := openTxn(rt.db)
	defer shared.close()

	results := make([][]byte, len(calls))
	for i, c := range calls {
		iv := newInvocation(rt, c.Object, rcalls[i].typ, rcalls[i].mi, c.Args, CallCtx{Trace: cc.Trace}, sched.Write)
		iv.txn = shared
		iv.locked = true   // the transaction holds the admissions
		iv.external = true // commit and unlock are managed here
		res, err := iv.run()
		results[i] = append([]byte(nil), res...) // the call's own copy: res is lent until iv recycles
		iv.recycle()
		if err != nil {
			return nil, fmt.Errorf("core: transaction call %d (%s.%s): %w",
				i, rcalls[i].typ.Name, c.Method, err)
		}
	}

	if shared.dirty() {
		// Bump every written object's version inside the same batch.
		seen := make(map[ObjectID]struct{})
		var touched []ObjectID
		for i := range shared.writes {
			if id, err := parseObjectID(shared.keyAt(i)); err == nil {
				if _, dup := seen[id]; !dup {
					seen[id] = struct{}{}
					touched = append(touched, id)
				}
			}
		}
		for _, id := range touched {
			cur, _, err := shared.get(nil, VersionKey(id))
			if err != nil {
				return nil, err
			}
			shared.put(VersionKey(id), EncodeU64(DecodeU64(cur)+1))
		}
		// A replication failure withholds the transaction's ack the same
		// way it withholds a single invocation's.
		if err := rt.commit(cc.Trace, shared.batch(), touched...); err != nil {
			return nil, err
		}
	}
	return results, nil
}
