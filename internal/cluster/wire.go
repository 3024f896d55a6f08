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
	readOnly bool // client-requested replica-read
}

func encodeInvokeReq(r *invokeReq) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(r.object))
	b = wire.AppendString(b, r.method)
	b = wire.AppendFlag(b, r.readOnly)
	return wire.AppendBytesSlice(b, r.args)
}

func decodeInvokeReq(body []byte) (*invokeReq, error) {
	r := wire.NewReader(body)
	q := &invokeReq{object: core.ObjectID(r.Uvarint()), method: r.Str(), readOnly: r.Flag(), args: r.BytesSliceCopy()}
	return q, r.ErrIn("cluster: invoke request")
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
	r := wire.NewReader(body)
	q := &createReq{object: core.ObjectID(r.Uvarint()), typeName: r.Str()}
	return q, r.ErrIn("cluster: create request")
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
	r := wire.NewReader(body)
	q := &migrateReq{object: core.ObjectID(r.Uvarint()), destPrimary: r.Str(), destGroup: r.Uvarint()}
	return q, r.ErrIn("cluster: migrate request")
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
	r := wire.NewReader(body)
	// A call is at least an object id, a method length and an arg count.
	q := &txReq{calls: make([]core.TxCall, r.Count(3))}
	for i := range q.calls {
		q.calls[i] = core.TxCall{Object: core.ObjectID(r.Uvarint()), Method: r.Str(), Args: r.BytesSliceCopy()}
	}
	return q, r.ErrIn("cluster: transaction request")
}

// encodeTxResp / decodeTxResp carry the per-call results.
func encodeTxResp(results [][]byte) []byte {
	return wire.AppendBytesSlice(nil, results)
}

func decodeTxResp(body []byte) ([][]byte, error) {
	r := wire.NewReader(body)
	return r.BytesSliceCopy(), r.ErrIn("cluster: transaction response")
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
	r := wire.NewReader(body)
	out := make([]core.HotObject, r.Count(2))
	for i := range out {
		out[i] = core.HotObject{ID: core.ObjectID(r.Uvarint()), Count: r.Uvarint()}
	}
	return out, r.ErrIn("cluster: hot-window response")
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
