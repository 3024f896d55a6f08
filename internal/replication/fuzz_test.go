package replication

import (
	"testing"

	"lambdastore/internal/store"
	"lambdastore/internal/wire/wiretest"
)

// encodeFrame re-encodes a decoded frame through the group send's encoder.
func encodeFrame(f *Frame) []byte {
	var g store.Group
	for i, b := range f.Batches {
		g.Add(f.Objects[i], b)
	}
	return appendFrame(nil, f.Epoch, &g, nil, f.lease)
}

func decodeFrame(body []byte) (*Frame, error) {
	f := new(Frame)
	return f, f.Decode(body)
}

// FuzzReplicationWire covers the group frame — with and without the lease
// renewal that may ride behind its members — and the standalone lease
// renewal and its reply.
func FuzzReplicationWire(f *testing.F) {
	b := store.NewBatch()
	b.Put([]byte("o\x00\x07name"), []byte("alice"))
	b.Delete([]byte("o\x00\x07tmp"))
	objects, batches := []uint64{7, 1 << 40}, []*store.Batch{b, store.NewBatch()}
	plain := wiretest.Of("applyBatch", &Frame{Epoch: 3, Objects: objects, Batches: batches}, encodeFrame, decodeFrame)
	leased := wiretest.Of("applyBatch+lease", &Frame{Epoch: 3, Objects: objects, Batches: batches,
		lease: leaseMsg{ttlUs: 200000, enq: 41, grantNs: 1 << 50}}, encodeFrame, decodeFrame)
	plain.Extensible, leased.Extensible = true, true
	wiretest.Fuzz(f, plain, leased,
		wiretest.Of("lease", leaseMsg{epoch: 3, ttlUs: 200000, enq: 41, grantNs: 1 << 50}, encodeLease, decodeLease),
		wiretest.Of("lease reply", leaseReply{took: true, epoch: 3}, encodeLeaseReply, decodeLeaseReply),
	)
}
