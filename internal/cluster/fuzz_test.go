package cluster

import (
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/wire/wiretest"
)

// FuzzClusterWire covers every frame of the node's client-facing surface.
func FuzzClusterWire(f *testing.F) {
	args := [][]byte{[]byte("alice"), nil, {0, 1, 2}}
	wiretest.Fuzz(f,
		wiretest.Of("invokeReq", &invokeReq{object: 1 << 33, method: "get_timeline", args: args, readOnly: true}, encodeInvokeReq, decodeInvokeReq),
		wiretest.Of("createReq", &createReq{object: 7, typeName: "User"}, encodeCreateReq, decodeCreateReq),
		wiretest.Of("migrateReq", &migrateReq{object: 7, destPrimary: "127.0.0.1:7413", destGroup: 3}, encodeMigrateReq, decodeMigrateReq),
		wiretest.Of("txReq", &txReq{calls: []core.TxCall{{Object: 1, Method: "debit", Args: args}, {Object: 2, Method: "credit"}}}, encodeTxReq, decodeTxReq),
		wiretest.Of("txResp", args, encodeTxResp, decodeTxResp),
		wiretest.Of("hotResp", []core.HotObject{{ID: 5, Count: 1 << 20}, {ID: 6, Count: 1}}, encodeHotResp, decodeHotResp),
	)
}

// TestHotRespCountIsBounded is the regression test for a reply that names
// more entries than it carries: the count used to size the result slice
// straight off the wire, so three bytes could panic or exhaust the
// rebalancer's sampler.
func TestHotRespCountIsBounded(t *testing.T) {
	frame := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x3f} // uvarint 2^41-1, no entries
	if _, err := decodeHotResp(frame); err == nil {
		t.Fatal("a hot-window reply announcing 2^41 entries in 0 bytes decoded")
	}
	// The counter is process-wide and other tests' nodes are still winding
	// down: the quietest of a few runs is the decoder's own cost.
	allocated := ^uint64(0)
	for try := 0; try < 5 && allocated > 1<<10; try++ {
		allocated = min(allocated, wiretest.AllocBytes(func() { decodeHotResp(frame) })) //nolint:errcheck // checked above
	}
	if allocated > 1<<10 {
		t.Fatalf("rejecting it allocated %d bytes", allocated)
	}
}
