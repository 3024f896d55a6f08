package replication

import (
	"testing"

	"lambdastore/internal/store"
	"lambdastore/internal/wire/wiretest"
)

// frameGroup is the write group a decoded frame carries.
func frameGroup(f *Frame) *store.Group {
	g := new(store.Group)
	for i, b := range f.Batches {
		g.Add(f.Objects[i], b)
	}
	return g
}

// encodeFrame re-encodes a decoded frame through the group send's encoder.
func encodeFrame(f *Frame) []byte { return appendFrame(nil, f.Epoch, frameGroup(f), nil) }

// encodeRelay re-encodes a decoded frame through the relay's encoder, which
// ships it unfenced.
func encodeRelay(f *Frame) []byte { return AppendFrame(nil, frameGroup(f), nil) }

func decodeFrame(body []byte) (*Frame, error) {
	f := new(Frame)
	return f, f.Decode(body)
}

// FuzzReplicationWire covers the group frame as a primary ships it and as a
// state-transfer relay forwards it — each ends with its last member, so
// every strict prefix of one is an error — and the lease renewal and its
// reply.
func FuzzReplicationWire(f *testing.F) {
	b := store.NewBatch()
	b.Put([]byte("o\x00\x07name"), []byte("alice"))
	b.Delete([]byte("o\x00\x07tmp"))
	objects, batches := []uint64{7, 1 << 40}, []*store.Batch{b, store.NewBatch()}
	wiretest.Fuzz(f,
		wiretest.Of("applyBatch", &Frame{Epoch: 3, Objects: objects, Batches: batches}, encodeFrame, decodeFrame),
		wiretest.Of("lease", leaseMsg{epoch: 3, ttlUs: 200000, grantNs: 1 << 50}, encodeLease, decodeLease),
		wiretest.Of("lease reply", leaseReply{took: true, epoch: 3}, encodeLeaseReply, decodeLeaseReply),
		wiretest.Of("applyBatch relay", &Frame{Objects: objects, Batches: batches}, encodeRelay, decodeFrame),
	)
}
