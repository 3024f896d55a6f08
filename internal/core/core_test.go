package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lambdastore/internal/sched"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/vm"
)

func mustInvoke(t *testing.T, rt *Runtime, id ObjectID, method string, args ...[]byte) []byte {
	t.Helper()
	res, err := rt.Invoke(id, method, args)
	if err != nil {
		t.Fatalf("Invoke(%s.%s): %v", id, method, err)
	}
	return res
}

func TestCounterBasics(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}

	res := mustInvoke(t, rt, 1, "add", I64Bytes(5))
	if BytesI64(res) != 5 {
		t.Fatalf("add(5) = %d", BytesI64(res))
	}
	res = mustInvoke(t, rt, 1, "add", I64Bytes(7))
	if BytesI64(res) != 12 {
		t.Fatalf("add(7) = %d", BytesI64(res))
	}
	res = mustInvoke(t, rt, 1, "get")
	if BytesI64(res) != 12 {
		t.Fatalf("get() = %d", BytesI64(res))
	}
}

func TestCreateObjectErrors(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.CreateObject("Nope", 1, CallCtx{}); !errors.Is(err, ErrNoSuchType) {
		t.Fatalf("err = %v", err)
	}
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	if _, err := rt.Invoke(99, "get", nil); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("missing object err = %v", err)
	}
	if _, err := rt.Invoke(1, "nosuch", nil); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("missing method err = %v", err)
	}
}

func TestAtomicityOnTrap(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, rt, 1, "add", I64Bytes(10))

	// add_then_trap writes the new count, then traps: nothing may commit.
	if _, err := rt.Invoke(1, "add_then_trap", [][]byte{I64Bytes(99)}); err == nil {
		t.Fatal("trapping method reported success")
	}
	if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != 10 {
		t.Fatalf("count after trap = %d, want 10 (atomicity violated)", got)
	}
	// Version must be unchanged too (1 create + 1 commit).
	v, err := rt.ObjectVersion(1)
	if err != nil || v != 1 {
		t.Fatalf("version = %d, %v", v, err)
	}
}

func TestInvocationLinearizabilityConcurrentAdds(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := rt.Invoke(1, "add", [][]byte{I64Bytes(1)}); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != workers*perWorker {
		t.Fatalf("count = %d, want %d (lost updates)", got, workers*perWorker)
	}
	v, err := rt.ObjectVersion(1)
	if err != nil || v != workers*perWorker {
		t.Fatalf("version = %d, %v", v, err)
	}
}

func TestRealTimeVisibility(t *testing.T) {
	// Third clause of invocation linearizability: once Invoke returns,
	// every later invocation sees the write.
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 100; i++ {
		mustInvoke(t, rt, 1, "add", I64Bytes(1))
		if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != i {
			t.Fatalf("after add #%d, get = %d", i, got)
		}
	}
}

func TestFuelExhaustionIsIsolated(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{Fuel: 50_000})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(1, "spin", nil); !errors.Is(err, vm.ErrOutOfFuel) {
		t.Fatalf("err = %v, want ErrOutOfFuel", err)
	}
	// Node still healthy.
	mustInvoke(t, rt, 1, "add", I64Bytes(3))
	if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != 3 {
		t.Fatalf("count = %d", got)
	}
}

func TestSelfInvocation(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, rt, 1, "add", I64Bytes(21))
	res := mustInvoke(t, rt, 1, "double")
	if BytesI64(res) != 42 {
		t.Fatalf("double = %d", BytesI64(res))
	}
	if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != 42 {
		t.Fatalf("count after double = %d", got)
	}
}

func TestCrossObjectTransfer(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newAccountType(t)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ObjectID{10, 11} {
		if err := rt.CreateObject("Account", id, CallCtx{}); err != nil {
			t.Fatal(err)
		}
	}
	mustInvoke(t, rt, 10, "deposit", I64Bytes(100))
	mustInvoke(t, rt, 10, "transfer", I64Bytes(11), I64Bytes(30))

	if got := BytesI64(mustInvoke(t, rt, 10, "balance")); got != 70 {
		t.Fatalf("src balance = %d", got)
	}
	if got := BytesI64(mustInvoke(t, rt, 11, "balance")); got != 30 {
		t.Fatalf("dst balance = %d", got)
	}
}

func TestInsufficientFundsAborts(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newAccountType(t)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ObjectID{10, 11} {
		if err := rt.CreateObject("Account", id, CallCtx{}); err != nil {
			t.Fatal(err)
		}
	}
	mustInvoke(t, rt, 10, "deposit", I64Bytes(10))
	if _, err := rt.Invoke(10, "transfer", [][]byte{I64Bytes(11), I64Bytes(30)}); err == nil {
		t.Fatal("overdraft transfer succeeded")
	}
	if got := BytesI64(mustInvoke(t, rt, 10, "balance")); got != 10 {
		t.Fatalf("src balance = %d (should be untouched)", got)
	}
	if got := BytesI64(mustInvoke(t, rt, 11, "balance")); got != 0 {
		t.Fatalf("dst balance = %d", got)
	}
}

func TestNestedCallCommitsCallerWrites(t *testing.T) {
	// Paper §3.1: invoking another function commits the caller's writes so
	// far; a trap AFTER the nested call must not roll them back.
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newAccountType(t)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ObjectID{10, 11} {
		if err := rt.CreateObject("Account", id, CallCtx{}); err != nil {
			t.Fatal(err)
		}
	}
	mustInvoke(t, rt, 10, "deposit", I64Bytes(100))
	if _, err := rt.Invoke(10, "transfer_then_trap", [][]byte{I64Bytes(11), I64Bytes(25)}); err == nil {
		t.Fatal("transfer_then_trap reported success")
	}
	if got := BytesI64(mustInvoke(t, rt, 10, "balance")); got != 75 {
		t.Fatalf("src balance = %d, want 75 (pre-call writes must commit)", got)
	}
	if got := BytesI64(mustInvoke(t, rt, 11, "balance")); got != 25 {
		t.Fatalf("dst balance = %d, want 25 (nested call committed)", got)
	}
}

func TestParallelFanout(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newAccountType(t)); err != nil {
		t.Fatal(err)
	}
	const n = 16
	for id := ObjectID(100); id < 100+n+1; id++ {
		if err := rt.CreateObject("Account", id, CallCtx{}); err != nil {
			t.Fatal(err)
		}
	}
	// Object 100 fans deposits out to 101..100+n.
	mustInvoke(t, rt, 100, "fanout_deposit", I64Bytes(n), I64Bytes(101), I64Bytes(5))
	for id := ObjectID(101); id < 101+n; id++ {
		if got := BytesI64(mustInvoke(t, rt, id, "balance")); got != 5 {
			t.Fatalf("object %s balance = %d", id, got)
		}
	}
}

func TestListAndMapFields(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newNotebookType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Notebook", 7, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustInvoke(t, rt, 7, "append_entry", []byte(fmt.Sprintf("entry-%d", i)))
	}
	if got := BytesI64(mustInvoke(t, rt, 7, "entry_count")); got != 10 {
		t.Fatalf("entry_count = %d", got)
	}
	for i := 0; i < 10; i++ {
		got := mustInvoke(t, rt, 7, "entry_at", I64Bytes(int64(i)))
		if string(got) != fmt.Sprintf("entry-%d", i) {
			t.Fatalf("entry_at(%d) = %q", i, got)
		}
	}

	mustInvoke(t, rt, 7, "tag_set", []byte("color"), []byte("blue"))
	mustInvoke(t, rt, 7, "tag_set", []byte("size"), []byte("xl"))
	if got := mustInvoke(t, rt, 7, "tag_get", []byte("color")); string(got) != "blue" {
		t.Fatalf("tag_get(color) = %q", got)
	}
	if got := BytesI64(mustInvoke(t, rt, 7, "tag_count")); got != 2 {
		t.Fatalf("tag_count = %d", got)
	}
	mustInvoke(t, rt, 7, "tag_del", []byte("color"))
	if got := mustInvoke(t, rt, 7, "tag_get", []byte("color")); len(got) != 0 {
		t.Fatalf("deleted tag returned %q", got)
	}
	if got := BytesI64(mustInvoke(t, rt, 7, "tag_count")); got != 1 {
		t.Fatalf("tag_count after delete = %d", got)
	}
}

func TestConsistentCache(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{CacheEntries: 1024})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, rt, 1, "add", I64Bytes(5))

	// First get: miss + store. Second: hit.
	if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != 5 {
		t.Fatal("get")
	}
	if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != 5 {
		t.Fatal("get")
	}
	s := rt.Cache().Stats()
	if s.Hits < 1 || s.Stores < 1 {
		t.Fatalf("cache stats %+v", s)
	}

	// A write invalidates; the next get must re-execute and see 8.
	mustInvoke(t, rt, 1, "add", I64Bytes(3))
	if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != 8 {
		t.Fatalf("get after write = %d (stale cache!)", got)
	}

	// A read that can reach the clock is not cacheable, decided when its
	// type is linked, so it leaves no cache entry and counts as a bypass.
	typ, _ := rt.Type("Counter")
	if m, _ := typ.Method("get_time"); !m.ReadOnly() || m.Cacheable() {
		t.Fatalf("get_time: read-only %v, cacheable %v; want a read that is not cacheable", m.ReadOnly(), m.Cacheable())
	}
	if rt.Cache().Len() == 0 {
		t.Fatal("expected at least the get entry cached")
	}
	before := rt.Cache().Stats()
	mustInvoke(t, rt, 1, "get_time")
	mustInvoke(t, rt, 1, "get_time")
	if after := rt.Cache().Stats(); after.Stores != before.Stores || after.Bypass != before.Bypass+2 {
		t.Fatalf("get_time went through the cache: %+v -> %+v", before, after)
	}
}

func TestCacheValidationWithoutProactiveInvalidation(t *testing.T) {
	// A write-set that obeys the commit protocol (the field and the object's
	// version key in one batch) but reaches the store without
	// InvalidateObject — what a backup would see if the invalidation were
	// lost: validation alone must reject the stale entry.
	rt, db := newTestRuntime(t, Options{CacheEntries: 1024})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, rt, 1, "add", I64Bytes(5))
	mustInvoke(t, rt, 1, "get") // populate cache

	version, err := rt.ObjectVersion(1)
	if err != nil {
		t.Fatal(err)
	}
	b := store.NewBatch()
	b.Put(ValueFieldKey(1, "count"), I64Bytes(77))
	b.Put(VersionKey(1), EncodeU64(version+1))
	if err := db.Write(b); err != nil {
		t.Fatal(err)
	}
	before := rt.Cache().Stats()
	if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != 77 {
		t.Fatalf("get = %d, want 77 (version validation failed)", got)
	}
	after := rt.Cache().Stats()
	if after.Validations != before.Validations+1 || after.Invalidations != before.Invalidations {
		t.Fatalf("stats %+v -> %+v: want the entry validated away, not invalidated", before, after)
	}
}

func TestDeleteObject(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newNotebookType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Notebook", 5, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, rt, 5, "append_entry", []byte("x"))
	mustInvoke(t, rt, 5, "tag_set", []byte("a"), []byte("b"))
	if err := rt.DeleteObject(5, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := rt.ObjectExists(5); ok {
		t.Fatal("object still exists")
	}
	if _, err := rt.Invoke(5, "entry_count", nil); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("err = %v", err)
	}
	if err := rt.DeleteObject(5, CallCtx{}); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("double delete err = %v", err)
	}
	// Re-creation starts fresh.
	if err := rt.CreateObject("Notebook", 5, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	if got := BytesI64(mustInvoke(t, rt, 5, "entry_count")); got != 0 {
		t.Fatalf("recreated entry_count = %d", got)
	}
}

func TestTypePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(1, "add", [][]byte{I64Bytes(9)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rt2, err := NewRuntime(db2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rt2.Type("Counter"); !ok {
		t.Fatal("type lost across restart")
	}
	if got := BytesI64(mustInvoke(t, rt2, 1, "get")); got != 9 {
		t.Fatalf("count after restart = %d", got)
	}
	// And methods still run.
	if got := BytesI64(mustInvoke(t, rt2, 1, "add", I64Bytes(1))); got != 10 {
		t.Fatalf("add after restart = %d", got)
	}
}

func TestOnCommitHookObservesWriteSets(t *testing.T) {
	var mu sync.Mutex
	var events []string
	rt, _ := newTestRuntime(t, Options{
		OnCommit: func(_ telemetry.SpanContext, obj ObjectID, seq uint64, ws *store.Batch) error {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, fmt.Sprintf("%s@%d ops=%d", obj, seq, ws.Len()))
			return nil
		},
	})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, rt, 1, "add", I64Bytes(5))
	mu.Lock()
	defer mu.Unlock()
	// Create (header+version) and add (count+version) both commit.
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
}

func TestReadOnlyInvocationsRunConcurrently(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, rt, 1, "add", I64Bytes(1))
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := BytesI64(mustInvoke(t, rt, 1, "get")); got != 1 {
				t.Errorf("get = %d", got)
			}
		}()
	}
	wg.Wait()
}

func TestObjectTypeEncodeDecode(t *testing.T) {
	typ := newCounterType(t)
	dec, err := DecodeObjectType(typ.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "Counter" || len(dec.Fields) != 1 || len(dec.Methods) != len(typ.Methods) {
		t.Fatalf("decoded %+v", dec)
	}
	// Nothing about a method is serialized: the decoded type derives its
	// facts from the module again.
	for _, name := range []string{"get", "add", "get_time"} {
		m, _ := typ.Method(name)
		d, ok := dec.Method(name)
		if !ok || d.ReadOnly() != m.ReadOnly() || d.Cacheable() != m.Cacheable() {
			t.Fatalf("%s: decoded facts differ: %+v vs %+v", name, d, m)
		}
	}
	if _, err := DecodeObjectType([]byte("junk")); err == nil {
		t.Fatal("junk decoded")
	}
}

func TestTypeValidation(t *testing.T) {
	mod := vm.MustAssemble("func f params=0 export\n  ret\nend")
	if _, err := NewObjectType("", nil, nil, mod); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewObjectType("T", []FieldDef{{Name: "a\x00b"}}, nil, mod); err == nil {
		t.Fatal("NUL field name accepted")
	}
	if _, err := NewObjectType("T", nil, []MethodInfo{{Name: "missing"}}, mod); err == nil {
		t.Fatal("method without export accepted")
	}
	notExported := vm.MustAssemble("func g params=0\n  ret\nend")
	if _, err := NewObjectType("T", nil, []MethodInfo{{Name: "g"}}, notExported); err == nil {
		t.Fatal("non-exported method accepted")
	}
	if _, err := NewObjectType("T", []FieldDef{{Name: "x"}, {Name: "x"}}, nil, mod); err == nil {
		t.Fatal("duplicate field accepted")
	}
}

// TestUnrunnableTypeRefused: a type whose methods could only ever fail at
// their first invocation is refused wherever a type is accepted — before
// RegisterType persists it, when a peer's record is decoded, and when a
// stored record is loaded — with an error naming the type and the defect.
func TestUnrunnableTypeRefused(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"stack parameters", "func m params=2 export\n  ret\nend", `method "m" declares 2 stack parameters`},
		{"missing import", "func m params=0 export\n  hostcall no_such_host_fn\n  ret\nend", `unresolved import "no_such_host_fn"`},
		{"untypeable stack", "func m params=0 export\n  add\n  ret\nend", `func "m" pc 0 (add): pops 2 with 0 on the stack`},
	} {
		typ := &ObjectType{Name: "Bad", Methods: []MethodInfo{{Name: "m"}}, Module: vm.MustAssemble(c.src)}
		check := func(path string, err error) {
			t.Helper()
			if !errors.Is(err, ErrBadType) || !strings.Contains(err.Error(), `type "Bad"`) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %s: err = %v\nwant ErrBadType naming type \"Bad\" and %s", c.name, path, err, c.want)
			}
		}
		rt, db := newTestRuntime(t, Options{})
		check("RegisterType", rt.RegisterType(typ))
		if _, ok := rt.Type("Bad"); ok {
			t.Errorf("%s: refused type was installed", c.name)
		}
		if _, err := db.Get(TypeRecordKey("Bad")); err == nil {
			t.Errorf("%s: refused type was persisted", c.name)
		}
		_, err := DecodeObjectType(typ.Encode())
		check("DecodeObjectType", err)
		if err := db.Put(TypeRecordKey("Bad"), typ.Encode()); err != nil {
			t.Fatal(err)
		}
		_, err = NewRuntime(db, Options{})
		check("loading the store", err)
	}
}

func TestWrongFieldKindRejected(t *testing.T) {
	// A method that treats a value field as a list must fail cleanly.
	src := `
func abuse params=0 export
  str "count"
  hostcall list_len
  pop
  ret
end`
	mod := vm.MustAssemble(src)
	typ, err := NewObjectType("Abuser",
		[]FieldDef{{Name: "count", Kind: FieldValue}},
		[]MethodInfo{{Name: "abuse"}}, mod)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Abuser", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(1, "abuse", nil); err == nil {
		t.Fatal("kind-mismatched access succeeded")
	}
}

// TestVersionCounter also pins the shared commit tail: create, a mutating
// invocation and delete each reach the replication hook exactly once, under
// the committing request's trace, with the write made durable ("wal-sync")
// inside one "commit" span of that trace.
func TestVersionCounter(t *testing.T) {
	tracer := telemetry.NewTracer("n", 0)
	tracer.SetEnabled(true)
	var hooked []telemetry.SpanContext
	rt, _ := newTestRuntime(t, Options{Tracer: tracer,
		OnCommit: func(ctx telemetry.SpanContext, obj ObjectID, seq uint64, ws *store.Batch) error {
			hooked = append(hooked, ctx)
			return nil
		}})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	// commitTail checks that the last commit was one hook call under root.
	commitTail := func(what string, calls int, root telemetry.SpanContext) {
		t.Helper()
		if len(hooked) != calls {
			t.Fatalf("%s: OnCommit ran %d times in total, want %d", what, len(hooked), calls)
		}
		if got := hooked[calls-1]; !got.Valid() || got.Trace != root.Trace {
			t.Fatalf("%s: OnCommit got trace context %+v, want trace %016x", what, got, root.Trace)
		}
		names := map[string]telemetry.Span{}
		for _, sp := range tracer.TraceSpans(root.Trace) {
			names[sp.Name] = sp
		}
		if names["wal-sync"].ID == 0 || names["wal-sync"].Parent != names["commit"].ID {
			t.Fatalf("%s: trace has no wal-sync under commit: %+v", what, names)
		}
	}

	root := telemetry.NewRootContext()
	if err := rt.CreateObject("Counter", 1, CallCtx{Trace: root}); err != nil {
		t.Fatal(err)
	}
	commitTail("create", 1, root)
	if v, err := rt.ObjectVersion(1); err != nil || v != 0 {
		t.Fatalf("version after create = %d, %v", v, err)
	}
	for i := uint64(1); i <= 5; i++ {
		root = telemetry.NewRootContext()
		if _, err := rt.InvokeCtx(1, "add", [][]byte{I64Bytes(1)}, CallCtx{Trace: root}); err != nil {
			t.Fatal(err)
		}
		commitTail("add", 1+int(i), root)
		v, err := rt.ObjectVersion(1)
		if err != nil || v != i {
			t.Fatalf("version after %d adds = %d, %v", i, v, err)
		}
	}
	// Read-only invocations never bump the version, nor reach the hook.
	mustInvoke(t, rt, 1, "get")
	if v, _ := rt.ObjectVersion(1); v != 5 || len(hooked) != 6 {
		t.Fatalf("after get: version %d, %d hook calls", v, len(hooked))
	}
	root = telemetry.NewRootContext()
	if err := rt.DeleteObject(1, CallCtx{Trace: root}); err != nil {
		t.Fatal(err)
	}
	commitTail("delete", 7, root)
}

func TestInvocationDepthLimit(t *testing.T) {
	// A method that self-invokes forever must hit the depth limit, not
	// exhaust the Go stack.
	src := `
func recurse params=0 export
  hostcall self_id
  str "recurse"
  hostcall invoke
  pop
  ret
end`
	mod := vm.MustAssemble(src)
	typ, err := NewObjectType("Rec", nil, []MethodInfo{{Name: "recurse"}}, mod)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Rec", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	_, err = rt.Invoke(1, "recurse", nil)
	if err == nil || !strings.Contains(err.Error(), "depth limit") {
		t.Fatalf("err = %v, want depth limit", err)
	}
}

// TestLockTimeoutSurfacesAsError: an invocation queued behind an admission
// held past the lock table's timeout fails with sched.ErrTimeout instead of
// hanging. The timeout is the one every deployment runs, 10 s (only sched's
// own tests shorten it), so the test runs in parallel.
func TestLockTimeoutSurfacesAsError(t *testing.T) {
	t.Parallel()
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	// Hold the object's admission externally, then invoke: the scheduler
	// must time the invocation out instead of hanging.
	release, err := rt.LockObject(1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	_, err = rt.Invoke(1, "add", [][]byte{I64Bytes(1)})
	if !errors.Is(err, sched.ErrTimeout) {
		t.Fatalf("err = %v, want sched.ErrTimeout", err)
	}
	if d := time.Since(start); d < 9*time.Second || d > 30*time.Second {
		t.Fatalf("timed out after %v, want about 10s", d)
	}
}
