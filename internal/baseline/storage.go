// Package baseline implements the paper's comparison system (§4.1, §5): a
// conventional *disaggregated* serverless architecture built from the same
// parts as LambdaStore so the comparison is fair. Storage and compute are
// separate processes: compute nodes run the identical guest modules in the
// identical VM, but every data access crosses the network to the storage
// layer as an individual operation, and nested function invocations go back
// through a load balancer that durably logs each request (the role Kafka
// plays in OpenWhisk). The baseline offers per-operation atomicity only —
// no invocation atomicity, isolation, or result caching — matching the
// paper's "the disaggregated variant provides no consistency guarantees".
package baseline

import (
	"errors"
	"fmt"

	"lambdastore/internal/core"
	"lambdastore/internal/replication"
	"lambdastore/internal/rpc"
	"lambdastore/internal/sched"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// Storage RPC method names.
const (
	MethodValGet   = "bstore.valget"
	MethodValSet   = "bstore.valset"
	MethodValDel   = "bstore.valdel"
	MethodMapGet   = "bstore.mapget"
	MethodMapSet   = "bstore.mapset"
	MethodMapDel   = "bstore.mapdel"
	MethodMapCount = "bstore.mapcount"
	MethodListLen  = "bstore.listlen"
	MethodListGet  = "bstore.listget"
	MethodListPush = "bstore.listpush"
	MethodHeader   = "bstore.header"
	MethodCreate   = "bstore.create"
	MethodGetType  = "bstore.gettype"
	MethodRegType  = "bstore.regtype"
)

// ErrAbsent is the in-band "not found" marker for single-value reads.
var ErrAbsent = errors.New("baseline: absent")

// absentMarker distinguishes "no value" responses on the wire: first byte 0
// = absent, 1 = present followed by the value.
func encodePresent(value []byte) []byte {
	out := make([]byte, 0, len(value)+1)
	out = append(out, 1)
	return append(out, value...)
}

var absentResp = []byte{0}

// decodePresence splits a presence-marked response.
func decodePresence(body []byte) ([]byte, bool, error) {
	if len(body) < 1 {
		return nil, false, fmt.Errorf("baseline: empty presence response")
	}
	if body[0] == 0 {
		return nil, false, nil
	}
	return body[1:], true, nil
}

// fieldReq addresses (object, field) plus optional key/value operands.
type fieldReq struct {
	object core.ObjectID
	field  string
	key    []byte
	value  []byte
	idx    uint64
}

func encodeFieldReq(r *fieldReq) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(r.object))
	b = wire.AppendString(b, r.field)
	b = wire.AppendBytes(b, r.key)
	b = wire.AppendBytes(b, r.value)
	b = wire.AppendUvarint(b, r.idx)
	return b
}

func decodeFieldReq(body []byte) (*fieldReq, error) {
	r := wire.NewReader(body)
	q := &fieldReq{object: core.ObjectID(r.Uvarint()), field: r.Str(), key: r.BytesCopy(), value: r.BytesCopy(), idx: r.Uvarint()}
	return q, r.ErrIn("baseline: field request")
}

// EncodeCreateReq builds the body of a MethodCreate request (used by the
// benchmark harness and tools).
func EncodeCreateReq(object uint64, typeName string) []byte {
	return encodeFieldReq(&fieldReq{object: core.ObjectID(object), value: []byte(typeName)})
}

// StorageNode is the disaggregated storage layer: the same LSM engine and
// primary-backup replication as LambdaStore, but exposing raw per-operation
// access instead of executing functions.
type StorageNode struct {
	db      *store.DB
	srv     *rpc.Server
	pool    *rpc.Pool
	shipper *replication.Shipper
	addr    string

	// lists serializes list-push read-modify-writes per object so a single
	// operation stays atomic (Redis-style) while pushes to different
	// objects proceed in parallel. There is still no cross-operation
	// isolation — that is the baseline's defining gap.
	lists *sched.Table
}

// StorageOptions configures a baseline storage node.
type StorageOptions struct {
	Addr    string
	DataDir string
	// Backups receive every applied write batch.
	Backups []string
	// ClientOptions tunes replication connections.
	ClientOptions *rpc.ClientOptions
}

// StartStorage opens the store and serves.
func StartStorage(opts StorageOptions) (*StorageNode, error) {
	n := &StorageNode{
		srv:   rpc.NewServer(),
		pool:  rpc.NewPool(opts.ClientOptions),
		lists: sched.NewTable(),
	}
	n.shipper = replication.NewShipper(n.pool, nil)
	n.shipper.SetBackups(opts.Backups)
	// Every applied batch replicates through its write group, one frame per
	// group; a failed ship is left to reconfiguration, as in the system the
	// baseline stands for.
	db, err := store.Open(opts.DataDir, &store.Options{OnGroup: func(g *store.Group) {
		n.shipper.ShipGroup(telemetry.SpanContext{}, g) //nolint:errcheck // reconfig handles failures
	}})
	if err != nil {
		return nil, err
	}
	n.db = db
	n.register()
	addr, err := n.srv.Serve(opts.Addr)
	if err != nil {
		db.Close()
		return nil, err
	}
	n.addr = addr
	return n, nil
}

// Addr returns the node's RPC address.
func (n *StorageNode) Addr() string { return n.addr }

// Close shuts the node down.
func (n *StorageNode) Close() error {
	n.srv.Close()
	n.shipper.Close()
	n.pool.Close()
	return n.db.Close()
}

// commitOp commits one operation's batch locally; its write group
// replicates it.
func (n *StorageNode) commitOp(object core.ObjectID, b *store.Batch) error {
	b.Replicate(uint64(object), telemetry.SpanContext{})
	return n.db.Write(b)
}

// get reads one key with presence marking.
func (n *StorageNode) get(key []byte) ([]byte, error) {
	v, err := n.db.Get(key)
	if errors.Is(err, store.ErrNotFound) {
		return absentResp, nil
	}
	if err != nil {
		return nil, err
	}
	return encodePresent(v), nil
}

func (n *StorageNode) register() {
	// Backups of the baseline storage group register the same replication
	// sink as aggregated nodes.
	replication.RegisterBackup(n.srv, n.db, replication.ApplierFunc(
		func(object uint64, b *store.Batch) error {
			return n.db.Write(b)
		}))

	h := func(method string, fn rpc.Handler) {
		n.srv.Handle(method, func(body []byte) ([]byte, error) {
			return fn(body)
		})
	}

	h(MethodValGet, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		return n.get(core.ValueFieldKey(r.object, r.field))
	})
	h(MethodValSet, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		b := store.NewBatch()
		b.Put(core.ValueFieldKey(r.object, r.field), r.value)
		return nil, n.commitOp(r.object, b)
	})
	h(MethodValDel, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		b := store.NewBatch()
		b.Delete(core.ValueFieldKey(r.object, r.field))
		return nil, n.commitOp(r.object, b)
	})
	h(MethodMapGet, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		return n.get(core.MapEntryKey(r.object, r.field, r.key))
	})
	h(MethodMapSet, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		b := store.NewBatch()
		b.Put(core.MapEntryKey(r.object, r.field, r.key), r.value)
		return nil, n.commitOp(r.object, b)
	})
	h(MethodMapDel, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		b := store.NewBatch()
		b.Delete(core.MapEntryKey(r.object, r.field, r.key))
		return nil, n.commitOp(r.object, b)
	})
	h(MethodMapCount, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		it, err := n.db.NewIterator()
		if err != nil {
			return nil, err
		}
		defer it.Close()
		prefix := core.MapFieldPrefix(r.object, r.field)
		var count uint64
		for it.Seek(prefix); it.Valid(); it.Next() {
			k := it.Key()
			if len(k) < len(prefix) || string(k[:len(prefix)]) != string(prefix) {
				break
			}
			count++
		}
		if err := it.Error(); err != nil {
			return nil, err
		}
		return core.EncodeU64(count), nil
	})
	h(MethodListLen, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		v, err := n.db.Get(core.ListLenKey(r.object, r.field))
		if errors.Is(err, store.ErrNotFound) {
			return core.EncodeU64(0), nil
		}
		if err != nil {
			return nil, err
		}
		return v, nil
	})
	h(MethodListGet, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		return n.get(core.ListEntryKey(r.object, r.field, r.idx))
	})
	h(MethodListPush, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		// Read-modify-write of the length counter: atomic per operation,
		// serialized per object. The lock is held across the ship too, so two
		// pushes to one list reach a backup in the order they were numbered.
		release, err := n.lists.Acquire(uint64(r.object), sched.Write)
		if err != nil {
			return nil, err
		}
		defer release()
		lenKey := core.ListLenKey(r.object, r.field)
		var cur uint64
		if v, err := n.db.Get(lenKey); err == nil {
			cur = core.DecodeU64(v)
		} else if !errors.Is(err, store.ErrNotFound) {
			return nil, err
		}
		b := store.NewBatch()
		b.Put(core.ListEntryKey(r.object, r.field, cur), r.value)
		b.Put(lenKey, core.EncodeU64(cur+1))
		return nil, n.commitOp(r.object, b)
	})
	h(MethodHeader, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		return n.get(core.HeaderKey(r.object))
	})
	h(MethodCreate, func(body []byte) ([]byte, error) {
		r, err := decodeFieldReq(body)
		if err != nil {
			return nil, err
		}
		if _, err := n.db.Get(core.HeaderKey(r.object)); err == nil {
			return nil, fmt.Errorf("baseline: object %s exists", r.object)
		} else if !errors.Is(err, store.ErrNotFound) {
			return nil, err
		}
		b := store.NewBatch()
		b.Put(core.HeaderKey(r.object), r.value) // value = type name
		return nil, n.commitOp(r.object, b)
	})
	h(MethodGetType, func(body []byte) ([]byte, error) {
		r := wire.NewReader(body)
		name := r.Str()
		if err := r.ErrIn("baseline: type request"); err != nil {
			return nil, err
		}
		return n.get(core.TypeRecordKey(name))
	})
	h(MethodRegType, func(body []byte) ([]byte, error) {
		t, err := core.DecodeObjectType(body)
		if err != nil {
			return nil, err
		}
		b := store.NewBatch()
		b.Put(core.TypeRecordKey(t.Name), body)
		return nil, n.commitOp(0, b)
	})
}
