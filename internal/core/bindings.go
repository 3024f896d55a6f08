package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"lambdastore/internal/store"
)

// typeSlot holds the current definition of one type name. Bindings name the
// slot, not the definition: re-registering or reloading a type swaps the
// pointer here, and every object bound to it runs the new code. A nil
// definition (a type a reload removed) reads as a miss.
type typeSlot struct{ t atomic.Pointer[ObjectType] }

const (
	bindingShards = 64
	// maxBindings caps the table; at the cap a new binding replaces an
	// arbitrary old one, whose object's next lookup misses.
	maxBindings = 1 << 18
)

// bindingShard is one lock-striped slice of the binding table. epoch counts
// the write path's changes to it (every unbind, every bind that changed
// something): a miss installs its binding only if the epoch it read before
// its header read still stands, as the result cache's StoreAt does.
type bindingShard struct {
	mu    sync.RWMutex
	m     map[ObjectID]*typeSlot
	epoch uint64
	_     [24]byte // a cache line per shard: a read lock writes to its line
}

// bindings is a node's object -> type-slot table: what every replica must
// know before it runs a method, and what a write-set changes only by
// putting or deleting the object's header. So the write path keeps it in
// step (write), and a miss — a header read — happens only for an object
// this node has not bound since it started, or whose binding the cap
// evicted.
type bindings [bindingShards]bindingShard

func (b *bindings) shard(id ObjectID) *bindingShard {
	return &b[(uint64(id)*0x9E3779B97F4A7C15)>>(64-6)]
}

// setLocked binds id to slot, making room at the cap. Caller holds s.mu.
func (s *bindingShard) setLocked(id ObjectID, slot *typeSlot) {
	if s.m == nil {
		s.m = make(map[ObjectID]*typeSlot)
	}
	if _, ok := s.m[id]; !ok && len(s.m) >= maxBindings/bindingShards {
		for victim := range s.m {
			delete(s.m, victim)
			break
		}
	}
	s.m[id] = slot
}

// typeMissHook, when set, runs in typeOf between a miss's header read and
// its bind. It is nil outside tests, which set it to hold a miss while a
// write-set changes the object's header.
var typeMissHook func()

// typeOf resolves an object's type: its binding, or on a miss its header,
// read into a stack buffer, then bound unless the write path changed the
// shard meanwhile (the object may have been deleted or re-created).
func (rt *Runtime) typeOf(id ObjectID) (*ObjectType, error) {
	s := rt.bindings.shard(id)
	s.mu.RLock()
	slot, epoch := s.m[id], s.epoch
	s.mu.RUnlock()
	if slot != nil {
		if t := slot.t.Load(); t != nil {
			return t, nil
		}
	}
	rt.metrics.typeMisses.Inc()
	var kb [objectPrefixLen + 1]byte
	var nb [64]byte // room for a type name; a longer one is read into the heap
	name, present, err := rt.db.GetInto(nb[:0], appendFieldKey(appendObjectPrefix(kb[:0], id), subHeader, ""))
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchObject, id)
	}
	var t *ObjectType
	if slot = rt.slot(name); slot != nil {
		t = slot.t.Load()
	}
	if t == nil {
		return nil, fmt.Errorf("%w: %q (referenced by %s)", ErrNoSuchType, string(name), id)
	}
	if typeMissHook != nil {
		typeMissHook()
	}
	s.mu.Lock()
	if s.epoch == epoch {
		s.setLocked(id, slot)
	}
	s.mu.Unlock()
	return t, nil
}

// slot returns the slot of the type named name, nil if it was never
// installed.
func (rt *Runtime) slot(name []byte) *typeSlot {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.types[string(name)]
}

// write is the one way core writes object keys to the store: it writes the
// write-sets and, once they are in the store, binds every object whose
// header they put and unbinds every object whose header they deleted. Any
// other key leaves the binding alone. applied is true when the write-sets
// are in the store, also when the group hook withheld the ack.
func (rt *Runtime) write(batches ...*store.Batch) (applied bool, err error) {
	if applied, err = written(rt.db.Write(batches...)); !applied {
		return false, err
	}
	for _, b := range batches {
		b.ForEach(func(_ byte, key, value []byte) error {
			if len(key) == objectPrefixLen+1 && key[0] == keyPrefixObject && key[objectPrefixLen] == subHeader {
				rt.rebind(ObjectID(binary.BigEndian.Uint64(key[1:])), value)
			}
			return nil
		})
	}
	return true, err
}

// rebind sets id's binding from the header value a write-set left: the slot
// of the type it names, or none for a deleted header or an unknown type.
func (rt *Runtime) rebind(id ObjectID, header []byte) {
	var slot *typeSlot
	if len(header) > 0 {
		slot = rt.slot(header)
	}
	s := rt.bindings.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.m[id]; ok && cur == slot {
		return
	}
	s.epoch++
	if slot == nil {
		delete(s.m, id)
	} else {
		s.setLocked(id, slot)
	}
}
