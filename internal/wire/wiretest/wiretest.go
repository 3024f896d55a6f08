// Package wiretest is the property harness behind every decoding package's
// fuzz target. The platform may re-send, truncate and replay any frame, so
// every decoder has to be total; a target lists its package's frames as
// Codecs and Fuzz holds each to the same three properties:
//
//   - arbitrary bytes never panic and never allocate more than a small
//     multiple of their length (a count a peer names sizes nothing);
//   - a frame that decodes re-encodes to a canonical frame that decodes to
//     the same value;
//   - every strict prefix of a canonical frame is an error — truncation never
//     goes unnoticed.
package wiretest

import (
	"bytes"
	"runtime"
	"testing"
)

// Codec is one frame format.
type Codec struct {
	Name string
	// Seed is a frame the package's own encoder produced.
	Seed []byte
	// RoundTrip decodes frame and re-encodes the value it held.
	RoundTrip func(frame []byte) ([]byte, error)
	// Extensible marks a format that ends in an optional tail or is a
	// sequence of records: a strict prefix of a frame may be a frame, but
	// never one holding the same value.
	Extensible bool
}

// Of builds the Codec of a frame from a sample value and its encoder and
// decoder.
func Of[T any](name string, sample T, enc func(T) []byte, dec func([]byte) (T, error)) Codec {
	return Codec{Name: name, Seed: enc(sample), RoundTrip: func(frame []byte) ([]byte, error) {
		v, err := dec(frame)
		if err != nil {
			return nil, err
		}
		return enc(v), nil
	}}
}

// Allocation bound of one decode plus re-encode: the decoded form of a byte
// is at most a slice header or a 16-byte instruction plus what a validator
// derives from it, so 64 bytes per input byte over a fixed floor is generous
// for honest frames and far below anything a runaway count allocates.
const (
	allocFloor   = 16 << 10
	allocPerByte = 64
)

// AllocBytes returns how many heap bytes fn allocates.
func AllocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Fuzz seeds f with every codec's frame — whole, with trailing bytes, and cut
// in half — and checks the package's decoders against arbitrary input. The
// seeds run in plain `go test`.
func Fuzz(f *testing.F, codecs ...Codec) {
	for i, c := range codecs {
		if got, err := c.RoundTrip(c.Seed); err != nil || !bytes.Equal(got, c.Seed) {
			f.Fatalf("%s: the encoder's own frame %x round-trips to %x, %v", c.Name, c.Seed, got, err)
		}
		f.Add(uint8(i), c.Seed)
		f.Add(uint8(i), append(append([]byte(nil), c.Seed...), 0xff, 0x01))
		f.Add(uint8(i), c.Seed[:len(c.Seed)/2])
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		check(t, codecs[int(which)%len(codecs)], data)
	})
}

func check(t *testing.T, c Codec, data []byte) {
	var canon []byte
	var err error
	limit := uint64(allocFloor + allocPerByte*len(data))
	decode := func() { canon, err = c.RoundTrip(data) }
	// TotalAlloc is process-wide: measure again before blaming the decoder.
	if got := AllocBytes(decode); got > limit && AllocBytes(decode) > limit {
		t.Fatalf("%s: %d input bytes allocated %d (limit %d)", c.Name, len(data), got, limit)
	}
	if err != nil {
		return
	}
	again, err := c.RoundTrip(canon)
	if err != nil || !bytes.Equal(again, canon) {
		t.Fatalf("%s: canonical frame %x re-decodes to %x, %v", c.Name, canon, again, err)
	}
	if len(canon) > 1<<10 {
		return // quadratic below; every seed is far smaller
	}
	for cut := range canon {
		got, err := c.RoundTrip(canon[:cut])
		if err == nil && (!c.Extensible || bytes.Equal(got, canon)) {
			t.Fatalf("%s: frame %x cut at %d still decodes (to %x)", c.Name, canon, cut, got)
		}
	}
}
