// Package cluster assembles the full LambdaStore node — storage engine,
// object runtime, primary-backup replication, consistent cache, and RPC
// surface — plus the client library applications use to invoke
// LambdaObjects. This is the "aggregated" architecture of the paper:
// functions execute directly at the primary storage node of the object
// they belong to.
package cluster

import (
	"fmt"
	"strings"

	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/wire"
)

// RPC method names exposed by a storage node.
const (
	MethodInvoke       = "obj.invoke"
	MethodInvokeTx     = "obj.invoketx"
	MethodCreate       = "obj.create"
	MethodDelete       = "obj.delete"
	MethodRegisterType = "type.register"
	MethodStats        = "node.stats"
	MethodMigrate      = "node.migrate"
	MethodHotWindow    = "node.hotwindow"
)

// notResponsiblePrefix marks routing errors; the payload after the prefix
// is the responsible primary's address (a hint for the client to retry).
const notResponsiblePrefix = "not-responsible:"

// notResponsibleError formats a routing rejection.
func notResponsibleError(primary string) error {
	return fmt.Errorf("%s%s", notResponsiblePrefix, primary)
}

// ParseNotResponsible extracts the primary hint from a routing rejection.
func ParseNotResponsible(err error) (string, bool) {
	if err == nil {
		return "", false
	}
	msg := err.Error()
	idx := strings.Index(msg, notResponsiblePrefix)
	if idx < 0 {
		return "", false
	}
	return strings.TrimSpace(msg[idx+len(notResponsiblePrefix):]), true
}

// invokeReq is the wire form of a method invocation.
type invokeReq struct {
	object   core.ObjectID
	method   string
	args     [][]byte
	readOnly bool   // client-requested replica-read
	tenant   string // admission-quota identity ("" = derive from the peer)
}

func encodeInvokeReq(r *invokeReq) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(r.object))
	b = wire.AppendString(b, r.method)
	var ro uint64
	if r.readOnly {
		ro = 1
	}
	b = wire.AppendUvarint(b, ro)
	b = wire.AppendBytesSlice(b, r.args)
	// The tenant tag rides after the args, appended only when set: frames
	// from tenant-less clients are byte-identical to the pre-tenant format,
	// and decoders treat a missing tail as no tenant.
	if r.tenant != "" {
		b = wire.AppendString(b, r.tenant)
	}
	return b
}

func decodeInvokeReq(body []byte) (*invokeReq, error) {
	r := &invokeReq{}
	var obj uint64
	var err error
	if obj, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	r.object = core.ObjectID(obj)
	if r.method, body, err = wire.String(body); err != nil {
		return nil, err
	}
	var ro uint64
	if ro, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	r.readOnly = ro != 0
	items, rest, err := wire.BytesSlice(body)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		r.args = append(r.args, append([]byte(nil), it...))
	}
	if len(rest) > 0 {
		if r.tenant, _, err = wire.String(rest); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// createReq is the wire form of object creation.
type createReq struct {
	object   core.ObjectID
	typeName string
}

func encodeCreateReq(r *createReq) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(r.object))
	return wire.AppendString(b, r.typeName)
}

func decodeCreateReq(body []byte) (*createReq, error) {
	r := &createReq{}
	var obj uint64
	var err error
	if obj, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	r.object = core.ObjectID(obj)
	if r.typeName, _, err = wire.String(body); err != nil {
		return nil, err
	}
	return r, nil
}

// migrateReq asks a primary to move an object to another group.
type migrateReq struct {
	object      core.ObjectID
	destPrimary string
	destGroup   uint64
}

func encodeMigrateReq(r *migrateReq) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(r.object))
	b = wire.AppendString(b, r.destPrimary)
	return wire.AppendUvarint(b, r.destGroup)
}

func decodeMigrateReq(body []byte) (*migrateReq, error) {
	r := &migrateReq{}
	var obj uint64
	var err error
	if obj, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	r.object = core.ObjectID(obj)
	if r.destPrimary, body, err = wire.String(body); err != nil {
		return nil, err
	}
	if r.destGroup, _, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	return r, nil
}

// txReq is the wire form of a multi-call transaction.
type txReq struct {
	calls []core.TxCall
}

func encodeTxReq(r *txReq) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(len(r.calls)))
	for _, c := range r.calls {
		b = wire.AppendUvarint(b, uint64(c.Object))
		b = wire.AppendString(b, c.Method)
		b = wire.AppendBytesSlice(b, c.Args)
	}
	return b
}

func decodeTxReq(body []byte) (*txReq, error) {
	r := &txReq{}
	n, rest, err := wire.Uvarint(body)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var c core.TxCall
		var obj uint64
		if obj, rest, err = wire.Uvarint(rest); err != nil {
			return nil, err
		}
		c.Object = core.ObjectID(obj)
		if c.Method, rest, err = wire.String(rest); err != nil {
			return nil, err
		}
		var items [][]byte
		if items, rest, err = wire.BytesSlice(rest); err != nil {
			return nil, err
		}
		for _, it := range items {
			c.Args = append(c.Args, append([]byte(nil), it...))
		}
		r.calls = append(r.calls, c)
	}
	return r, nil
}

// encodeTxResp / decodeTxResp carry the per-call results.
func encodeTxResp(results [][]byte) []byte {
	return wire.AppendBytesSlice(nil, results)
}

func decodeTxResp(body []byte) ([][]byte, error) {
	items, _, err := wire.BytesSlice(body)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(items))
	for i, it := range items {
		out[i] = append([]byte(nil), it...)
	}
	return out, nil
}

// encodeHotResp / decodeHotResp serialize a load ranking.
func encodeHotResp(hot []core.HotObject) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(len(hot)))
	for _, h := range hot {
		b = wire.AppendUvarint(b, uint64(h.ID))
		b = wire.AppendUvarint(b, h.Count)
	}
	return b
}

func decodeHotResp(body []byte) ([]core.HotObject, error) {
	n, rest, err := wire.Uvarint(body)
	if err != nil {
		return nil, err
	}
	out := make([]core.HotObject, 0, n)
	for i := uint64(0); i < n; i++ {
		var id, count uint64
		if id, rest, err = wire.Uvarint(rest); err != nil {
			return nil, err
		}
		if count, rest, err = wire.Uvarint(rest); err != nil {
			return nil, err
		}
		out = append(out, core.HotObject{ID: core.ObjectID(id), Count: count})
	}
	return out, nil
}

// MoveObject asks the source primary to live-migrate one object to the
// destination group (the rebalancer's actuator — wire codecs are
// unexported, so external drivers go through this helper).
func MoveObject(pool *rpc.Pool, sourcePrimary string, object uint64, destPrimary string, destGroup uint64) error {
	_, err := pool.Call(sourcePrimary, MethodMigrate, encodeMigrateReq(&migrateReq{
		object:      core.ObjectID(object),
		destPrimary: destPrimary,
		destGroup:   destGroup,
	}))
	return err
}

// HotWindow samples and resets one node's hot-object counters — the
// rebalancer's per-window load signal. The sample-and-reset contract
// assumes a single sampler per node.
func HotWindow(pool *rpc.Pool, addr string, limit int) ([]core.HotObject, error) {
	body, err := pool.Call(addr, MethodHotWindow, wire.AppendUvarint(nil, uint64(limit)))
	if err != nil {
		return nil, err
	}
	return decodeHotResp(body)
}
