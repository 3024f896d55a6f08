package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// bindingTypes builds the three test types, each a fresh compile: a new
// module every call, as a deployment of new code would bring.
var bindingTypes = []func(*testing.T) *ObjectType{newCounterType, newAccountType, newNotebookType}

// writeCall is a committing method of each test type and its argument.
var writeCall = map[string][2]string{
	"Counter":  {"add", "i64"},
	"Account":  {"deposit", "i64"},
	"Notebook": {"append_entry", "x"},
}

// checkBindings resolves every object's type and compares it with a fresh
// read of its header: the type installed under the header's name, or
// ErrNoSuchObject for no header, or ErrNoSuchType for a name no type has.
func checkBindings(t *testing.T, rt *Runtime, db *store.DB, ids []ObjectID, step string) {
	t.Helper()
	for _, id := range ids {
		got, err := rt.typeOf(id)
		gotName := "nothing"
		if got != nil {
			gotName = got.Name
		}
		header, herr := db.Get(HeaderKey(id))
		switch {
		case errors.Is(herr, store.ErrNotFound):
			if !errors.Is(err, ErrNoSuchObject) {
				t.Fatalf("%s: %s has no header, resolves to %s, %v", step, id, gotName, err)
			}
		case herr != nil:
			t.Fatal(herr)
		default:
			want, ok := rt.Type(string(header))
			if !ok {
				if !errors.Is(err, ErrNoSuchType) {
					t.Fatalf("%s: %s's header names no type, resolves to %s, %v", step, id, gotName, err)
				}
			} else if err != nil || got != want {
				t.Fatalf("%s: %s's header names %s (%p), resolves to %s (%p), %v", step, id, header, want, gotName, got, err)
			}
		}
	}
}

// TestBindingsFollowTheStore drives a seeded sequence of everything that
// changes what an object's type is — creates, deletes, plain commits,
// replicated frames that create, delete or re-create an object under another
// type (or one no type has), a chunked transfer whose header arrives after
// the object's other keys, re-registered types and a reload — and after
// every step requires type resolution to agree with the store.
func TestBindingsFollowTheStore(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { bindingSequence(t, seed) })
	}
}

func bindingSequence(t *testing.T, seed int64) {
	reg := telemetry.NewRegistry()
	rt, db := newTestRuntime(t, Options{Metrics: reg})
	for _, newType := range bindingTypes {
		if err := rt.RegisterType(newType(t)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ids := []ObjectID{1, 2, 3, 4, 5, 6}
	names := []string{"Counter", "Account", "Notebook", "Ghost"}
	anyID := func() ObjectID { return ids[rng.Intn(len(ids))] }
	typeName := func() string { return names[rng.Intn(3)] }
	// wipe deletes every key of id into b.
	wipe := func(b *store.Batch, id ObjectID) {
		if err := rt.forEachObjectKey(id, func(k []byte) { b.Delete(append([]byte(nil), k...)) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		var step string
		switch op := rng.Intn(7); op {
		case 0:
			id, name := anyID(), typeName()
			step = fmt.Sprintf("create %s as %s", id, name)
			if err := rt.CreateObject(name, id, CallCtx{}); err != nil && !errors.Is(err, ErrExists) {
				t.Fatalf("%s: %v", step, err)
			}
		case 1:
			id := anyID()
			step = fmt.Sprintf("delete %s", id)
			if err := rt.DeleteObject(id, CallCtx{}); err != nil && !errors.Is(err, ErrNoSuchObject) {
				t.Fatalf("%s: %v", step, err)
			}
		case 2:
			id := anyID()
			step = fmt.Sprintf("commit to %s", id)
			typ, err := rt.typeOf(id)
			if err != nil {
				continue
			}
			call := writeCall[typ.Name]
			arg := []byte(call[1])
			if call[1] == "i64" {
				arg = I64Bytes(1)
			}
			if _, err := rt.Invoke(id, call[0], [][]byte{arg}); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		case 3:
			// One replicated frame: each member creates, deletes, re-creates
			// under another type (or one nobody registered), or only writes.
			var objects []uint64
			var batches []*store.Batch
			for _, id := range rng.Perm(len(ids))[:1+rng.Intn(3)] {
				id := ids[id]
				b := store.NewBatch()
				switch rng.Intn(4) {
				case 0:
					wipe(b, id)
				case 1:
					wipe(b, id)
					b.Put(HeaderKey(id), []byte(names[rng.Intn(len(names))]))
					b.Put(VersionKey(id), EncodeU64(0))
				case 2:
					b.Put(HeaderKey(id), []byte(typeName()))
				default:
					b.Put(VersionKey(id), EncodeU64(uint64(i)))
				}
				if b.Empty() {
					continue
				}
				objects, batches = append(objects, uint64(id)), append(batches, b)
			}
			step = fmt.Sprintf("frame over %v", objects)
			if err := rt.ApplyReplicatedBulk(objects, batches); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		case 4:
			// A chunked transfer: the first chunk replaces the object's keys
			// with everything but its header, which the second brings.
			id, name := anyID(), typeName()
			first := store.NewBatch()
			wipe(first, id)
			first.Put(VersionKey(id), EncodeU64(7))
			if err := rt.ApplyReplicated(id, first); err != nil {
				t.Fatal(err)
			}
			checkBindings(t, rt, db, ids, fmt.Sprintf("first chunk of %s", id))
			second := store.NewBatch()
			second.Put(HeaderKey(id), []byte(name))
			step = fmt.Sprintf("header chunk of %s as %s", id, name)
			if err := rt.ApplyReplicated(id, second); err != nil {
				t.Fatal(err)
			}
		case 5:
			newType := bindingTypes[rng.Intn(len(bindingTypes))]
			typ := newType(t)
			step = fmt.Sprintf("re-register %s", typ.Name)
			if err := rt.RegisterType(typ); err != nil {
				t.Fatal(err)
			}
		case 6:
			step = "reload types"
			if err := rt.ReloadTypes(); err != nil {
				t.Fatal(err)
			}
		}
		checkBindings(t, rt, db, ids, fmt.Sprintf("step %d (%s)", i, step))
	}
	// The write path bound what it wrote: most checks were hits.
	checks := uint64(300 * len(ids))
	if misses := reg.Counter("core.type_misses").Value(); misses*2 > checks {
		t.Fatalf("%d of %d resolutions read the header", misses, checks)
	}
}

// TestTypeMissRacingDelete holds a miss between its header read and its bind
// while DeleteObject commits: the miss must not bind the deleted object, or
// the next read would run the guest on no state and answer with an empty
// result instead of ErrNoSuchObject.
func TestTypeMissRacingDelete(t *testing.T) {
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	// Forget the binding the create made, so the next read misses.
	rt.rebind(1, nil)

	paused, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	typeMissHook = func() {
		once.Do(func() {
			close(paused)
			<-resume
		})
	}
	t.Cleanup(func() { typeMissHook = nil })
	done := make(chan error, 1)
	go func() {
		_, err := rt.Invoke(1, "get", nil)
		done <- err
	}()
	<-paused
	if err := rt.DeleteObject(1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	close(resume)
	<-done
	if res, err := rt.Invoke(1, "get", nil); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("read after delete = %v, %v; want ErrNoSuchObject", res, err)
	}
}

// TestBindingsAllocateNothing: a hit, a bind, an unbind and a miss that
// re-binds allocate nothing once the table has grown to hold the object.
func TestBindingsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the store's read scratch")
	}
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newCounterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1, CallCtx{}); err != nil {
		t.Fatal(err)
	}
	header := []byte("Counter")
	for name, fn := range map[string]func(){
		"hit":         func() { rt.typeOf(1) },
		"bind":        func() { rt.rebind(1, nil); rt.rebind(1, header) },
		"miss + bind": func() { rt.rebind(1, nil); rt.typeOf(1) },
	} {
		fn()
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects, want 0", name, allocs)
		}
	}
	if _, err := rt.typeOf(1); err != nil {
		t.Fatal(err)
	}
}

// TestBindingsCapped fills one shard past its share of the cap: the shard
// stays at the cap, and the newest binding is the one it holds.
func TestBindingsCapped(t *testing.T) {
	var s bindingShard
	slot := new(typeSlot)
	const per = maxBindings / bindingShards
	for id := ObjectID(0); id < per+100; id++ {
		s.setLocked(id, slot)
		if len(s.m) > per {
			t.Fatalf("%d bindings in a shard capped at %d", len(s.m), per)
		}
	}
	if s.m[per+99] != slot {
		t.Fatal("the newest binding was evicted")
	}
}
