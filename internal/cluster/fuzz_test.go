package cluster

import (
	"strings"
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/wire/wiretest"
)

// FuzzClusterWire covers every frame of the node's client-facing surface.
// The invoke request runs the handler's in-place decoder, from a method name
// too long to intern and more args than invokeReq.argv holds to a count the
// frame cannot carry.
func FuzzClusterWire(f *testing.F) {
	args := [][]byte{[]byte("alice"), nil, {0, 1, 2}}
	encInvoke := func(q *invokeReq) []byte { return *encodeInvokeReq(q) }
	decInvoke := func(b []byte) (*invokeReq, error) {
		q := new(invokeReq)
		return q, q.decode(b)
	}
	manyArgs := make([][]byte, 2*len(invokeReq{}.argv)+1)
	for i := range manyArgs {
		manyArgs[i] = []byte{byte(i)}
	}
	// object 1, method "m", not read-only, 300 args, and no bytes for them.
	f.Add(uint8(0), []byte{1, 1, 'm', 0, 0xac, 0x02})
	wiretest.Fuzz(f,
		wiretest.Of("invokeReq", &invokeReq{object: 1 << 33, method: "get_timeline", args: args, readOnly: true}, encInvoke, decInvoke),
		wiretest.Of("invokeReq, long method", &invokeReq{object: 2, method: strings.Repeat("m", maxInternedLen+1), args: args}, encInvoke, decInvoke),
		wiretest.Of("invokeReq, many args", &invokeReq{object: 3, method: "store_post", args: manyArgs}, encInvoke, decInvoke),
		wiretest.Of("createReq", &createReq{object: 7, typeName: "User"}, encodeCreateReq, decodeCreateReq),
		wiretest.Of("migrateReq", &migrateReq{object: 7, destPrimary: "127.0.0.1:7413", destGroup: 3}, encodeMigrateReq, decodeMigrateReq),
		wiretest.Of("txReq", &txReq{calls: []core.TxCall{{Object: 1, Method: "debit", Args: args}, {Object: 2, Method: "credit"}}}, encodeTxReq, decodeTxReq),
		wiretest.Of("txResp", args, encodeTxResp, decodeTxResp),
		wiretest.Of("deleteReq", core.ObjectID(1<<33), encodeDeleteReq, decodeDeleteReq),
	)
}

// TestTxReqCountIsBounded is the regression test for a frame that names
// more entries than it carries: a count that sized the result slice
// straight off the wire would let three bytes panic or exhaust the node.
func TestTxReqCountIsBounded(t *testing.T) {
	frame := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x3f} // uvarint 2^41-1, no calls
	if _, err := decodeTxReq(frame); err == nil {
		t.Fatal("a transaction announcing 2^41 calls in 0 bytes decoded")
	}
	// The counter is process-wide and other tests' nodes are still winding
	// down: the quietest of a few runs is the decoder's own cost.
	allocated := ^uint64(0)
	for try := 0; try < 5 && allocated > 1<<10; try++ {
		allocated = min(allocated, wiretest.AllocBytes(func() { decodeTxReq(frame) })) //nolint:errcheck // checked above
	}
	if allocated > 1<<10 {
		t.Fatalf("rejecting it allocated %d bytes", allocated)
	}
}
