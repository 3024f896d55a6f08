package recovery

import (
	"bytes"
	"reflect"
	"testing"
)

// codec is one wire message: every decode* in wire.go and move.go, paired
// with its encoder and a sample value.
type codec struct {
	name   string
	sample any
	encode func(v any) []byte
	decode func(b []byte) (any, error)
	// elems counts the slice elements a decoded value holds.
	elems func(v any) int
}

func mk[T any](name string, sample *T, enc func(*T) []byte, dec func([]byte) (*T, error), elems func(*T) int) codec {
	return codec{
		name:   name,
		sample: sample,
		encode: func(v any) []byte { return enc(v.(*T)) },
		decode: func(b []byte) (any, error) {
			v, err := dec(b)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
		elems: func(v any) int {
			if elems == nil {
				return 0
			}
			return elems(v.(*T))
		},
	}
}

var (
	replicaReq = sessionReq{peer: "127.0.0.1:7411", epoch: 12}
	objectReq  = sessionReq{peer: "127.0.0.1:7412", scope: objectScope(1 << 40)}
	codecs     = []codec{
		mk("session/replica", &replicaReq, encodeSessionReq, decodeSessionReq, nil),
		mk("session/object", &objectReq, encodeSessionReq, decodeSessionReq, nil),
		mk("digestResp", &digestResp{buckets: []uint64{1, 2, 1 << 63}, meta: 9}, encodeDigestResp, decodeDigestResp,
			func(r *digestResp) int { return 8 * len(r.buckets) }),
		mk("objectsReq", &objectsReq{sessionReq: replicaReq, buckets: []uint64{0, 63, 300}}, encodeObjectsReq, decodeObjectsReq,
			func(r *objectsReq) int { return len(r.buckets) }),
		mk("objectsResp", &objectsResp{ids: []uint64{4, 1 << 50}, digests: []uint64{7, 8}}, encodeObjectsResp, decodeObjectsResp,
			func(r *objectsResp) int { return 9 * len(r.ids) }),
		mk("fetchReq", &fetchReq{sessionReq: objectReq, start: []byte("o\x00a"), end: []byte("o\x00b")}, encodeFetchReq, decodeFetchReq, nil),
		mk("fetchResp", &fetchResp{keys: [][]byte{[]byte("k1"), []byte("k2")}, values: [][]byte{[]byte("v1"), {}}, next: []byte("k3")},
			encodeFetchResp, decodeFetchResp, func(r *fetchResp) int { return len(r.keys) + len(r.values) }),
		mk("forward/replica", &forwardMsg{object: 77, batch: []byte("batch")}, encodeForward, decodeForward, nil),
		mk("forward/object", &forwardMsg{scoped: true, object: 78, batch: []byte{}}, encodeForward, decodeForward, nil),
		mk("moveSeal", &moveSealReq{object: 5, digest: 1 << 62}, encodeMoveSeal, decodeMoveSeal, nil),
		mk("moveEnd", &moveEndReq{object: 5, dir: []byte("directory snapshot")}, encodeMoveEnd, decodeMoveEnd, nil),
	}
)

// FuzzRecoveryWire feeds arbitrary bytes to every decoder. A decoder must
// return an error or a value that (1) holds no more slice elements than the
// input has bytes — counts come from the peer and must not size an
// allocation on their own — and (2) re-encodes to a canonical frame, no
// longer than the input, that decodes to the same value and re-encodes to
// itself. For an input whose varints are minimal (every frame an encoder
// produced) the canonical frame is a byte prefix of the input, which the
// seeds pin.
func FuzzRecoveryWire(f *testing.F) {
	for i, c := range codecs {
		frame := c.encode(c.sample)
		f.Add(uint8(i), frame)
		f.Add(uint8(i), append(frame, 0xff, 0x01)) // trailing bytes are ignored
		f.Add(uint8(i), frame[:len(frame)/2])
	}
	f.Add(uint8(2), []byte{0xff, 0xff, 0x03}) // 65535 buckets announced, none present
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		c := codecs[int(which)%len(codecs)]
		v, err := c.decode(data)
		if err != nil {
			return
		}
		if n := c.elems(v); n > len(data) {
			t.Fatalf("%s: %d bytes decoded to %d elements", c.name, len(data), n)
		}
		frame := c.encode(v)
		if len(frame) > len(data) {
			t.Fatalf("%s: %d bytes re-encode to %d", c.name, len(data), len(frame))
		}
		v2, err := c.decode(frame)
		if err != nil {
			t.Fatalf("%s: canonical frame %x does not decode: %v", c.name, frame, err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("%s: %+v re-decodes as %+v", c.name, v, v2)
		}
		if again := c.encode(v2); !bytes.Equal(again, frame) {
			t.Fatalf("%s: canonical frame %x re-encodes to %x", c.name, frame, again)
		}
	})
}

// TestWireRoundTrip pins the property the fuzz target cannot state for
// arbitrary input: what an encoder wrote decodes to the value it was given,
// and that value's frame is a byte prefix of any longer input carrying it.
func TestWireRoundTrip(t *testing.T) {
	for _, c := range codecs {
		frame := c.encode(c.sample)
		v, err := c.decode(append(append([]byte(nil), frame...), 0xaa))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := c.encode(v); !bytes.Equal(got, frame) {
			t.Fatalf("%s: frame %x re-encodes to %x", c.name, frame, got)
		}
		for cut := 0; cut < len(frame); cut++ {
			if v, err := c.decode(frame[:cut]); err == nil && !bytes.HasPrefix(frame, c.encode(v)) {
				t.Fatalf("%s: truncation at %d decoded to %+v, whose frame is not a prefix of the input", c.name, cut, v)
			}
		}
	}
}
