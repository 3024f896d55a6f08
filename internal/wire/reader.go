package wire

import (
	"encoding/binary"
	"fmt"
)

// Reader is the decoding cursor over one frame. A decoder reads every field
// and checks Err once: the first failure sticks, wrapped with the byte
// offset the cursor had reached, and every read after it returns the zero
// value. Len is zero after a failure, so `for r.Len() > 0` loops end.
//
// The zero-copy reads (Bytes, Raw, Rest, BytesSlice, Frame) alias the frame;
// a value that outlives the frame's buffer is read with BytesCopy, Str or
// BytesSliceCopy. A Reader holds no heap state of its own: declare it as a
// local (`r := wire.NewReader(b)`) and it stays on the stack.
type Reader struct {
	b []byte
	// off is the cursor. It is an index and not a shrinking slice so that
	// advancing it is not a pointer store: those pay the GC's write barrier
	// while a mark phase runs, once per field read.
	off int
	err error
}

// NewReader returns a cursor at the start of frame.
func NewReader(frame []byte) Reader { return Reader{b: frame} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// ErrIn is Err wrapped with the name of the frame being decoded.
func (r *Reader) ErrIn(frame string) error {
	if r.err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", frame, r.err)
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// fail records the first failure and lets go of the frame, so that every
// later read finds no bytes, falls into its own failure path and ends up here
// again: no read needs to test the error before it looks at the bytes.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", err, r.off)
		r.b, r.off = nil, 0
	}
}

// Raw reads n bytes with no length prefix.
func (r *Reader) Raw(n uint64) []byte {
	if n > uint64(len(r.b)-r.off) {
		r.fail(ErrShortBuffer)
		return nil
	}
	end := r.off + int(n)
	v := r.b[r.off:end:end]
	r.off = end
	return v
}

// Rest reads everything that is left.
func (r *Reader) Rest() []byte { return r.Raw(uint64(r.Len())) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if v := r.Raw(1); v != nil {
		return v[0]
	}
	return 0
}

// Uint32 reads a fixed-width little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if v := r.Raw(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

// Uint64 reads a fixed-width little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if v := r.Raw(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

// Uvarint reads an unsigned LEB128 varint. Most varints on the wire — flags,
// lengths, counts — fit one byte, which Uvarint1 reads without
// binary.Uvarint's loop.
func (r *Reader) Uvarint() uint64 {
	v, n := Uvarint1(r.b[r.off:])
	if n == 0 {
		v, n = binary.Uvarint(r.b[r.off:])
	}
	if !r.advance(n) {
		return 0
	}
	return v
}

// Varint reads a zig-zag signed LEB128 varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if !r.advance(n) {
		return 0
	}
	return v
}

// advance steps past the n bytes binary.Uvarint or binary.Varint consumed
// (n <= 0: the varint is truncated, or longer than 64 bits).
func (r *Reader) advance(n int) bool {
	switch {
	case n > 0:
		r.off += n
		return true
	case n == 0:
		r.fail(ErrShortBuffer)
	default:
		r.fail(ErrOverflow)
	}
	return false
}

// Flag reads a boolean written by AppendFlag.
func (r *Reader) Flag() bool { return r.Uvarint() != 0 }

// Count reads an element count. The count comes from the peer, so it must
// fit the bytes that follow — elemSize at least per element — before
// anything is sized from it: a count that passes bounds what the caller
// allocates by the length of the frame.
func (r *Reader) Count(elemSize int) int {
	n := r.Uvarint()
	if n > uint64(r.Len()/elemSize) {
		r.fail(fmt.Errorf("%w: %d elements of %d+ bytes in %d", ErrTooLarge, n, elemSize, r.Len()))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string, aliasing the frame.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > MaxBytesLen {
		r.fail(fmt.Errorf("%w: %d bytes", ErrTooLarge, n))
		return nil
	}
	return r.Raw(n)
}

// BytesCopy reads a length-prefixed byte string into memory of its own.
func (r *Reader) BytesCopy() []byte { return append([]byte(nil), r.Bytes()...) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// BytesSlice reads a count-prefixed sequence of byte strings, each aliasing
// the frame.
func (r *Reader) BytesSlice() [][]byte {
	items := make([][]byte, r.Count(1))
	for i := range items {
		items[i] = r.Bytes()
	}
	return items
}

// BytesSliceCopy is BytesSlice with every element copied out of the frame.
func (r *Reader) BytesSliceCopy() [][]byte {
	items := r.BytesSlice()
	for i, it := range items {
		items[i] = append([]byte(nil), it...)
	}
	return items
}

// Frame reads a checksummed frame written by AppendFrame and verifies its
// CRC. The payload aliases the frame.
func (r *Reader) Frame() []byte {
	payload := r.Bytes()
	if sum := r.Uint32(); r.err == nil && sum != Checksum(payload) {
		r.fail(ErrChecksum)
	}
	if r.err != nil {
		return nil
	}
	return payload
}
