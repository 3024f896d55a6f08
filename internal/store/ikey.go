// Package store implements the persistence substrate of LambdaStore: an
// embedded log-structured merge-tree key-value store in the mold of LevelDB
// (which the paper's prototype uses). It provides a write-ahead log, an
// in-memory skiplist memtable, immutable block-based SSTables with bloom
// filters, leveled background compaction, consistent snapshots, and ordered
// iteration.
//
// Both the aggregated LambdaStore nodes and the disaggregated baseline's
// storage layer persist data through this package, mirroring the paper's
// evaluation setup ("In both cases LambdaStore uses LevelDB to persist
// data").
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// keyKind distinguishes live values from tombstones inside internal keys.
type keyKind uint8

const (
	kindDelete keyKind = 0
	kindSet    keyKind = 1
	// kindSeek is the kind used when constructing lookup keys: it is the
	// largest kind so a seek positions at the first entry for the user key
	// with sequence <= the snapshot sequence.
	kindSeek = kindSet
)

// sequence numbers occupy 56 bits, leaving 8 for the kind, exactly as in
// LevelDB's packed trailer.
const maxSequence = (uint64(1) << 56) - 1

// internalKey is a user key followed by an 8-byte big-endian trailer packing
// (sequence << 8 | kind). Ordering is user key ascending, then sequence
// descending, then kind descending, so the newest version of a key is
// encountered first during forward iteration.
type internalKey []byte

// makeInternalKey appends the trailer for (seq, kind) to userKey, reusing
// dst's storage when possible.
func makeInternalKey(dst []byte, userKey []byte, seq uint64, kind keyKind) internalKey {
	dst = append(dst[:0], userKey...)
	var tr [8]byte
	binary.BigEndian.PutUint64(tr[:], seq<<8|uint64(kind))
	return append(dst, tr[:]...)
}

// userKey strips the trailer.
func (ik internalKey) userKey() []byte {
	if len(ik) < 8 {
		return nil
	}
	return ik[:len(ik)-8]
}

// trailer returns the packed (seq<<8|kind) value.
func (ik internalKey) trailer() uint64 {
	if len(ik) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(ik[len(ik)-8:])
}

// seq returns the sequence number.
func (ik internalKey) seq() uint64 { return ik.trailer() >> 8 }

// kind returns the key kind.
func (ik internalKey) kind() keyKind { return keyKind(ik.trailer() & 0xff) }

// valid reports whether ik is long enough to carry a trailer.
func (ik internalKey) valid() bool { return len(ik) >= 8 }

func (ik internalKey) String() string {
	if !ik.valid() {
		return fmt.Sprintf("<corrupt internal key %q>", []byte(ik))
	}
	return fmt.Sprintf("%q@%d#%d", ik.userKey(), ik.seq(), ik.kind())
}

// compareInternal orders internal keys: user key ascending, then trailer
// descending (newer sequence numbers first).
func compareInternal(a, b internalKey) int {
	ua, ub := a.userKey(), b.userKey()
	if c := bytes.Compare(ua, ub); c != 0 {
		return c
	}
	ta, tb := a.trailer(), b.trailer()
	switch {
	case ta > tb:
		return -1
	case ta < tb:
		return 1
	}
	return 0
}

// separator returns a short key k with a <= k < b (user-key order), used as
// an index separator between data blocks. It is built in dst's storage.
func separator(dst, a, b []byte) []byte {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	if n < len(a) && n < len(b) && a[n]+1 < b[n] {
		sep := append(dst[:0], a[:n+1]...)
		sep[n]++
		if bytes.Compare(sep, b) < 0 {
			return sep
		}
	}
	return append(dst[:0], a...)
}

// successor returns a short key k >= a, used as the final index separator.
// It is built in dst's storage.
func successor(dst, a []byte) []byte {
	for i := range a {
		if a[i] != 0xff {
			s := append(dst[:0], a[:i+1]...)
			s[i]++
			return s
		}
	}
	return append(dst[:0], a...)
}
