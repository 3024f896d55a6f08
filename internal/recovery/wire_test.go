package recovery

import (
	"bytes"
	"testing"

	"lambdastore/internal/replication"
	"lambdastore/internal/store"
	"lambdastore/internal/wire/wiretest"
)

// relayMsg is a relay as the receiver sees it: the session's name and the
// decoded frame.
type relayMsg struct {
	req   sessionReq
	frame replication.Frame
}

func encodeRelayMsg(m *relayMsg) []byte {
	var g store.Group
	for i, b := range m.frame.Batches {
		g.Add(m.frame.Objects[i], b)
	}
	return encodeRelay(&m.req, &g)
}

func decodeRelayMsg(body []byte) (*relayMsg, error) {
	m := new(relayMsg)
	req, frame, err := splitRelay(body)
	if err != nil {
		return nil, err
	}
	m.req = req
	return m, m.frame.Decode(frame)
}

// relay is a sample relay of two members into the named session.
func relay(req sessionReq) *relayMsg {
	b := store.NewBatch()
	b.Put([]byte("o\x00k"), []byte("v"))
	return &relayMsg{req: req, frame: replication.Frame{Objects: []uint64{1 << 40, 1 << 40}, Batches: []*store.Batch{b, store.NewBatch()}}}
}

var (
	replicaReq = sessionReq{peer: "127.0.0.1:7411", epoch: 12}
	objectReq  = sessionReq{peer: "127.0.0.1:7412", scope: objectScope(1 << 40)}
	// codecs is every decode* in wire.go and move.go, and the relay, paired
	// with its encoder and a sample value.
	codecs = []wiretest.Codec{
		wiretest.Of("session/replica", &replicaReq, encodeSessionReq, decodeSessionReq),
		wiretest.Of("session/object", &objectReq, encodeSessionReq, decodeSessionReq),
		wiretest.Of("digestReq", &digestReq{sessionReq: replicaReq, buckets: []uint64{1, 2, 1 << 63}, meta: 9}, encodeDigestReq, decodeDigestReq),
		wiretest.Of("digestResp", &digestResp{meta: 9, buckets: []uint64{0, 63, 300}, ids: []uint64{4, 1 << 50}, digests: []uint64{7, 8}},
			encodeDigestResp, decodeDigestResp),
		wiretest.Of("fetchReq", &fetchReq{sessionReq: objectReq, start: []byte("o\x00a"), end: []byte("o\x00b")}, encodeFetchReq, decodeFetchReq),
		wiretest.Of("fetchResp", &fetchResp{keys: [][]byte{[]byte("k1"), []byte("k2")}, values: [][]byte{[]byte("v1"), {}}, next: []byte("k3")},
			encodeFetchResp, decodeFetchResp),
		wiretest.Of("relay/replica", relay(replicaReq), encodeRelayMsg, decodeRelayMsg),
		wiretest.Of("relay/object", relay(objectReq), encodeRelayMsg, decodeRelayMsg),
		wiretest.Of("moveEnd", &moveEndReq{object: 5, dir: []byte("directory snapshot")}, encodeMoveEnd, decodeMoveEnd),
		// An aborted move's end carries no directory snapshot.
		wiretest.Of("moveEnd/abort", &moveEndReq{object: 5}, encodeMoveEnd, decodeMoveEnd),
	}
)

// FuzzRecoveryWire covers every frame of the state-transfer protocol.
func FuzzRecoveryWire(f *testing.F) {
	// A digest request from an empty peer name at epoch 0, replica scope,
	// announcing 65535 buckets with none present.
	f.Add(uint8(2), []byte{0x00, 0x00, 0x00, 0xff, 0xff, 0x03})
	wiretest.Fuzz(f, codecs...)
}

// TestTrailingBytesIgnored pins what the fuzz target cannot state for
// arbitrary input: bytes after a frame an encoder wrote do not change the
// value it decodes to — a relay's included, whose frame ends with its
// members.
func TestTrailingBytesIgnored(t *testing.T) {
	for _, c := range codecs {
		got, err := c.RoundTrip(append(append([]byte(nil), c.Seed...), 0xaa))
		if err != nil || !bytes.Equal(got, c.Seed) {
			t.Fatalf("%s: frame %x plus a byte re-encodes to %x, %v", c.Name, c.Seed, got, err)
		}
	}
}
