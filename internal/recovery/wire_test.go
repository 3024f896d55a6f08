package recovery

import (
	"bytes"
	"testing"

	"lambdastore/internal/wire/wiretest"
)

var (
	replicaReq = sessionReq{peer: "127.0.0.1:7411", epoch: 12}
	objectReq  = sessionReq{peer: "127.0.0.1:7412", scope: objectScope(1 << 40)}
	// codecs is every decode* in wire.go and move.go, paired with its
	// encoder and a sample value.
	codecs = []wiretest.Codec{
		wiretest.Of("session/replica", &replicaReq, encodeSessionReq, decodeSessionReq),
		wiretest.Of("session/object", &objectReq, encodeSessionReq, decodeSessionReq),
		wiretest.Of("digestResp", &digestResp{buckets: []uint64{1, 2, 1 << 63}, meta: 9}, encodeDigestResp, decodeDigestResp),
		wiretest.Of("objectsReq", &objectsReq{sessionReq: replicaReq, buckets: []uint64{0, 63, 300}}, encodeObjectsReq, decodeObjectsReq),
		wiretest.Of("objectsResp", &objectsResp{ids: []uint64{4, 1 << 50}, digests: []uint64{7, 8}}, encodeObjectsResp, decodeObjectsResp),
		wiretest.Of("fetchReq", &fetchReq{sessionReq: objectReq, start: []byte("o\x00a"), end: []byte("o\x00b")}, encodeFetchReq, decodeFetchReq),
		wiretest.Of("fetchResp", &fetchResp{keys: [][]byte{[]byte("k1"), []byte("k2")}, values: [][]byte{[]byte("v1"), {}}, next: []byte("k3")},
			encodeFetchResp, decodeFetchResp),
		wiretest.Of("forward/replica", &forwardMsg{object: 77, batch: []byte("batch")}, encodeForward, decodeForward),
		wiretest.Of("forward/object", &forwardMsg{scoped: true, object: 78, batch: []byte{}}, encodeForward, decodeForward),
		wiretest.Of("moveSeal", &moveSealReq{object: 5, digest: 1 << 62}, encodeMoveSeal, decodeMoveSeal),
		wiretest.Of("moveEnd", &moveEndReq{object: 5, dir: []byte("directory snapshot")}, encodeMoveEnd, decodeMoveEnd),
	}
)

// FuzzRecoveryWire covers every frame of the state-transfer protocol.
func FuzzRecoveryWire(f *testing.F) {
	f.Add(uint8(2), []byte{0xff, 0xff, 0x03}) // 65535 buckets announced, none present
	wiretest.Fuzz(f, codecs...)
}

// TestTrailingBytesIgnored pins what the fuzz target cannot state for
// arbitrary input: bytes after a frame an encoder wrote do not change the
// value it decodes to.
func TestTrailingBytesIgnored(t *testing.T) {
	for _, c := range codecs {
		got, err := c.RoundTrip(append(append([]byte(nil), c.Seed...), 0xaa))
		if err != nil || !bytes.Equal(got, c.Seed) {
			t.Fatalf("%s: frame %x plus a byte re-encodes to %x, %v", c.Name, c.Seed, got, err)
		}
	}
}
