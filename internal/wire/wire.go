// Package wire implements the low-level binary encoding primitives shared
// by the write-ahead log, SSTable format, replication stream, and RPC
// framing: unsigned/signed varints, length-prefixed byte strings, and
// CRC-checksummed frames.
//
// All encoders append to a caller-supplied buffer and return the extended
// slice. All decoding goes through Reader (reader.go), the one cursor over a
// frame; a decoder of an in-place layout that cannot afford a Reader per
// record (the SSTable block entry) may try Uvarint1, the one-byte fast path,
// first and fall back to a Reader. There is no other way to read a varint or
// a length prefix out of this package.
package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
)

// Decoding errors a Reader reports, each wrapped with the offset it happened at.
var (
	ErrShortBuffer = errors.New("wire: buffer too short")
	ErrOverflow    = errors.New("wire: varint overflows 64 bits")
	ErrChecksum    = errors.New("wire: checksum mismatch")
	ErrTooLarge    = errors.New("wire: length prefix exceeds limit")
)

// castagnoli is the CRC-32C polynomial table used for all frame checksums,
// matching the polynomial LevelDB and most storage systems use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C checksum of data.
func Checksum(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

// Uvarint1 decodes a one-byte unsigned varint — most varints are one
// byte — at the start of b: v and n == 1. n == 0 means b is empty or starts
// with a longer varint, which Reader.Uvarint reads. It makes no call, so it
// inlines into a decoder's loop.
func Uvarint1(b []byte) (v uint64, n int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return 0, 0
}

// AppendUvarint appends v in unsigned LEB128 form.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// UvarintLen returns how many bytes AppendUvarint appends for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendVarint appends v in zig-zag signed LEB128 form.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendUint32 appends v in little-endian fixed width.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendUint64 appends v in little-endian fixed width.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// MaxBytesLen bounds the length prefix Reader.Bytes accepts, to guard
// against corrupted or malicious inputs requesting absurd allocations.
const MaxBytesLen = 64 << 20 // 64 MiB

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFlag appends a boolean as a one-byte uvarint.
func AppendFlag(dst []byte, f bool) []byte {
	if f {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFrame appends payload wrapped in a checksummed frame:
//
//	uvarint length | payload | crc32c(payload) fixed32
//
// Frames are the unit of corruption detection in the WAL and the
// replication stream.
func AppendFrame(dst, payload []byte) []byte {
	dst = BeginFrame(dst, len(payload))
	start := len(dst)
	return EndFrame(append(dst, payload...), start)
}

// MaxFrameOverhead is the most bytes a frame adds to its payload: the
// length prefix and the checksum.
const MaxFrameOverhead = binary.MaxVarintLen64 + 4

// BeginFrame appends the head of a frame whose n-byte payload the caller
// appends in place next; EndFrame closes it. The pair frames a payload
// encoded straight into dst, where AppendFrame would copy it.
func BeginFrame(dst []byte, n int) []byte { return AppendUvarint(dst, uint64(n)) }

// EndFrame closes the frame whose payload is dst[start:], start being the
// length BeginFrame returned.
func EndFrame(dst []byte, start int) []byte {
	return AppendUint32(dst, Checksum(dst[start:]))
}

// AppendBytesSlice appends a count-prefixed sequence of byte strings.
func AppendBytesSlice(dst []byte, items [][]byte) []byte {
	dst = AppendUvarint(dst, uint64(len(items)))
	for _, it := range items {
		dst = AppendBytes(dst, it)
	}
	return dst
}
