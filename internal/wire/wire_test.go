package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lambdastore/internal/wire/wiretest"
)

func TestVarintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		r := NewReader(AppendUvarint(nil, v))
		if got := r.Uvarint(); got != v || r.Len() != 0 || r.Err() != nil {
			t.Fatalf("uvarint %d: got %d, rest %d, err %v", v, got, r.Len(), r.Err())
		}
	}
	for _, v := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64, -123456} {
		r := NewReader(AppendVarint(nil, v))
		if got := r.Varint(); got != v || r.Len() != 0 || r.Err() != nil {
			t.Fatalf("varint %d: got %d, err %v", v, got, r.Err())
		}
	}
	r := NewReader(nil)
	if r.Uvarint(); !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("empty buffer: %v", r.Err())
	}
	r = NewReader(bytes.Repeat([]byte{0xff}, 11))
	if r.Varint(); !errors.Is(r.Err(), ErrOverflow) {
		t.Fatalf("11-byte varint: %v", r.Err())
	}
}

func TestFixedWidthRoundTrip(t *testing.T) {
	b := AppendUint32(nil, 0xdeadbeef)
	b = AppendUint64(b, 0x0123456789abcdef)
	b = append(b, 7)
	r := NewReader(b)
	if v := r.Uint32(); v != 0xdeadbeef {
		t.Fatalf("u32 = %x", v)
	}
	if v := r.Uint64(); v != 0x0123456789abcdef {
		t.Fatalf("u64 = %x", v)
	}
	if v := r.Byte(); v != 7 || r.Len() != 0 || r.Err() != nil {
		t.Fatalf("byte = %d, rest %d, err %v", v, r.Len(), r.Err())
	}
	for _, short := range [][]byte{{1, 2}, {1}} {
		r32, r64 := NewReader(short), NewReader(short)
		r32.Uint32()
		r64.Uint64()
		if !errors.Is(r32.Err(), ErrShortBuffer) || !errors.Is(r64.Err(), ErrShortBuffer) {
			t.Fatalf("short fixed-width reads: %v, %v", r32.Err(), r64.Err())
		}
	}
}

func TestBytesAndString(t *testing.T) {
	b := AppendBytes(nil, []byte("hello"))
	b = AppendString(b, "")
	b = AppendBytes(b, nil)
	b = AppendFlag(AppendFlag(b, true), false)
	r := NewReader(b)
	if v := r.Bytes(); string(v) != "hello" {
		t.Fatalf("bytes = %q", v)
	}
	if s := r.Str(); s != "" {
		t.Fatalf("string = %q", s)
	}
	if v := r.Bytes(); len(v) != 0 {
		t.Fatalf("nil bytes = %q", v)
	}
	if !r.Flag() || r.Flag() || r.Len() != 0 || r.Err() != nil {
		t.Fatalf("flags: rest %d, err %v", r.Len(), r.Err())
	}
	// Truncated payload.
	r = NewReader(append(AppendUvarint(nil, 100), "short"...))
	if r.Bytes(); !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("truncated bytes err = %v", r.Err())
	}
	// Absurd length rejected before allocation.
	r = NewReader(AppendUvarint(nil, MaxBytesLen+1))
	if r.BytesCopy(); !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("oversized length: %v", r.Err())
	}
}

// TestBytesAliasesBytesCopyDoesNot pins which reads hand out the frame's own
// memory: a decoder that keeps a value past the frame buffer's reuse must
// have read it with a copying read.
func TestBytesAliasesBytesCopyDoesNot(t *testing.T) {
	frame := AppendBytes(nil, []byte("abc"))
	frame = AppendBytes(frame, []byte("def"))
	frame = AppendBytesSlice(frame, [][]byte{[]byte("gh")})
	frame = AppendBytesSlice(frame, [][]byte{[]byte("ij")})
	frame = AppendString(frame, "kl")
	r := NewReader(frame)
	alias, own := r.Bytes(), r.BytesCopy()
	aliases, owns, str := r.BytesSlice(), r.BytesSliceCopy(), r.Str()
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("rest %d, err %v", r.Len(), r.Err())
	}
	for i := range frame {
		frame[i] = 'X'
	}
	if string(alias) != "XXX" || string(aliases[0]) != "XX" {
		t.Fatalf("Bytes/BytesSlice copied: %q %q", alias, aliases[0])
	}
	if string(own) != "def" || string(owns[0]) != "ij" || str != "kl" {
		t.Fatalf("BytesCopy/BytesSliceCopy/Str alias the frame: %q %q %q", own, owns[0], str)
	}
	// An aliased value cannot grow into the fields behind it.
	frame = AppendBytes(AppendBytes(nil, []byte("a")), []byte("b"))
	r = NewReader(frame)
	_ = append(r.Bytes(), 'Z')
	if got := r.Bytes(); string(got) != "b" {
		t.Fatalf("append to an aliased read clobbered the next field: %q", got)
	}
}

// TestStickyError pins the contract decoders are written against: the first
// failure is kept with the offset it happened at, every later read returns
// the zero value, and Len drops to zero so length-driven loops end.
func TestStickyError(t *testing.T) {
	frame := AppendUvarint(nil, 7)
	frame = AppendBytes(frame, []byte("xy"))
	frame = append(frame, 0x05, 'a') // 5 bytes announced at offset 4, 1 present
	r := NewReader(frame)
	if r.Uvarint() != 7 || string(r.Bytes()) != "xy" {
		t.Fatal("intact prefix misread")
	}
	if v := r.Bytes(); v != nil {
		t.Fatalf("failed read returned %q", v)
	}
	first := r.Err()
	if !errors.Is(first, ErrShortBuffer) || !strings.Contains(first.Error(), "offset 5") {
		t.Fatalf("first failure = %v, want short buffer at offset 5", first)
	}
	if r.Len() != 0 {
		t.Fatalf("Len after failure = %d", r.Len())
	}
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Uint32() != 0 || r.Uint64() != 0 || r.Byte() != 0 ||
		r.Flag() || r.Str() != "" || r.Bytes() != nil || r.BytesCopy() != nil || r.Raw(1) != nil ||
		r.Rest() != nil || r.Count(1) != 0 || len(r.BytesSlice()) != 0 || r.Frame() != nil {
		t.Fatal("a read after the failure returned a non-zero value")
	}
	if r.Err() != first {
		t.Fatalf("error replaced: %v, then %v", first, r.Err())
	}
	if err := r.ErrIn("test: frame"); !errors.Is(err, ErrShortBuffer) || !strings.HasPrefix(err.Error(), "test: frame: ") {
		t.Fatalf("ErrIn = %v", err)
	}
	ok := NewReader(nil)
	if ok.ErrIn("test: frame") != nil {
		t.Fatal("ErrIn on a clean reader")
	}
}

// TestCountRejectsBeforeAllocating: a count is checked against the bytes
// that remain, so nothing a peer names can size an allocation on its own.
func TestCountRejectsBeforeAllocating(t *testing.T) {
	huge := AppendUvarint(nil, 1<<40)
	allocated := wiretest.AllocBytes(func() {
		r := NewReader(huge)
		if n := r.Count(1); n != 0 || !errors.Is(r.Err(), ErrTooLarge) {
			t.Fatalf("Count = %d, %v", n, r.Err())
		}
		r = NewReader(huge)
		if items := r.BytesSlice(); len(items) != 0 || r.Err() == nil {
			t.Fatalf("BytesSlice = %d items, %v", len(items), r.Err())
		}
	})
	if allocated > 4<<10 { // the two wrapped errors (larger under -race), nothing sized by the count
		t.Fatalf("%d bytes allocated rejecting a 2^40 count", allocated)
	}
	// elemSize is the floor per element: 3 elements of 2 bytes need 6.
	frame := append(AppendUvarint(nil, 3), 1, 2, 3, 4, 5)
	r := NewReader(frame)
	if r.Count(2); r.Err() == nil {
		t.Fatal("3 two-byte elements accepted in 5 bytes")
	}
	r = NewReader(append(frame, 6))
	if n := r.Count(2); n != 3 || r.Err() != nil {
		t.Fatalf("Count = %d, %v", n, r.Err())
	}
}

func TestFrame(t *testing.T) {
	payload := []byte("framed payload")
	b := AppendFrame(nil, payload)
	r := NewReader(b)
	if got := r.Frame(); !bytes.Equal(got, payload) || r.Len() != 0 || r.Err() != nil {
		t.Fatalf("frame: %q %v", got, r.Err())
	}
	// Corrupt one payload byte: checksum must catch it.
	bad := append([]byte(nil), b...)
	bad[2] ^= 0x40
	r = NewReader(bad)
	if got := r.Frame(); got != nil || !errors.Is(r.Err(), ErrChecksum) {
		t.Fatalf("corrupt frame: %q, %v", got, r.Err())
	}
	// Truncated frame.
	r = NewReader(b[:len(b)-2])
	if r.Frame(); r.Err() == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestQuickRoundTrips(t *testing.T) {
	f := func(u uint64, i int64, raw []byte, items [][]byte) bool {
		var b []byte
		b = AppendUvarint(b, u)
		b = AppendVarint(b, i)
		b = AppendBytes(b, raw)
		b = AppendBytesSlice(b, items)
		b = AppendFrame(b, raw)

		r := NewReader(b)
		if r.Uvarint() != u || r.Varint() != i || !bytes.Equal(r.Bytes(), raw) {
			return false
		}
		got := r.BytesSlice()
		if len(got) != len(items) {
			return false
		}
		for j := range items {
			if !bytes.Equal(got[j], items[j]) {
				return false
			}
		}
		return bytes.Equal(r.Frame(), raw) && r.Len() == 0 && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderNeverPanicsOnGarbage(t *testing.T) {
	f := func(garbage []byte) bool {
		for _, read := range []func(r *Reader){
			func(r *Reader) { r.Uvarint() }, func(r *Reader) { r.Varint() },
			func(r *Reader) { r.Uint32() }, func(r *Reader) { r.Uint64() },
			func(r *Reader) { r.Bytes() }, func(r *Reader) { r.Str() },
			func(r *Reader) { r.BytesSliceCopy() }, func(r *Reader) { r.Frame() },
			func(r *Reader) { r.Count(3) }, func(r *Reader) { r.Raw(1 << 62) },
		} {
			r := NewReader(garbage)
			read(&r)
			read(&r)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
