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
	"sync"

	"lambdastore/internal/core"
	"lambdastore/internal/wire"
)

// RPC method names exposed by a storage node.
const (
	MethodInvoke       = "obj.invoke"
	MethodInvokeTx     = "obj.invoketx"
	MethodCreate       = "obj.create"
	MethodDelete       = "obj.delete"
	MethodRegisterType = "type.register"
	MethodMigrate      = "node.migrate"
	MethodRecovery     = "node.recovery"
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
	object core.ObjectID
	method string
	args   [][]byte

	// argv backs a decoded args vector that fits it.
	argv [4][]byte
}

// invokeBufs recycles encoded invoke requests: the rpc layer has copied a
// request into its connection buffer by the time the call returns.
var invokeBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledInvoke bounds the encoded requests that go back to invokeBufs.
const maxPooledInvoke = 64 << 10

// encodeInvokeReq encodes r into a pooled buffer; putInvokeBuf returns it
// once the call has returned.
func encodeInvokeReq(r *invokeReq) *[]byte {
	p := invokeBufs.Get().(*[]byte)
	b := wire.AppendUvarint((*p)[:0], uint64(r.object))
	b = wire.AppendString(b, r.method)
	*p = wire.AppendBytesSlice(b, r.args)
	return p
}

func putInvokeBuf(p *[]byte) {
	if cap(*p) <= maxPooledInvoke {
		invokeBufs.Put(p)
	}
}

// invokeReqs recycles the invoke handler's decoded requests. They are pooled
// rather than on the handler's stack because core's invocation context holds
// the args for the call, which would move a stack request to the heap.
var invokeReqs = sync.Pool{New: func() any { return new(invokeReq) }}

// decode fills q from body in place. The args are views into body, in argv
// when they fit, so they are valid only while body is: the rpc server
// releases a request's frame after the handler has returned and its
// response is written, and core keeps nothing of an invocation's args past
// InvokeCtx (DESIGN §5b). The method is interned.
func (q *invokeReq) decode(body []byte) error {
	r := wire.NewReader(body)
	q.object = core.ObjectID(r.Uvarint())
	q.method = core.InternMethod(r.Bytes())
	if n := r.Count(1); n <= len(q.argv) {
		q.args = q.argv[:n]
	} else {
		q.args = make([][]byte, n)
	}
	for i := range q.args {
		q.args[i] = r.Bytes()
	}
	return r.ErrIn("cluster: invoke request")
}

// recycle drops q's views of its frame and returns it to invokeReqs.
func (q *invokeReq) recycle() {
	*q = invokeReq{}
	invokeReqs.Put(q)
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

// encodeDeleteReq / decodeDeleteReq carry the object a delete names.
func encodeDeleteReq(id core.ObjectID) []byte { return wire.AppendUvarint(nil, uint64(id)) }

func decodeDeleteReq(body []byte) (core.ObjectID, error) {
	r := wire.NewReader(body)
	id := core.ObjectID(r.Uvarint())
	return id, r.ErrIn("cluster: delete request")
}
