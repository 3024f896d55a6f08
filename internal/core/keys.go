package core

import (
	"encoding/binary"
	"fmt"
)

// Key-space layout inside the storage engine. Every key of an object is
// prefixed by 'o' + its 8-byte big-endian ID, so an object occupies one
// contiguous key range — this is what makes objects microshards (paper
// §4.2): a single range scan captures all of an object's state for
// migration, and range deletes remove it.
//
//	'T' <typeName>                          object type record
//	'o' <id8> 0x00                          object header (type name)
//	'o' <id8> 0x01 <field>                  value field
//	'o' <id8> 0x02 <field> 0x00 <key>       map entry
//	'o' <id8> 0x03 <field> 0x00 <idx8>      list element
//	'o' <id8> 0x04 <field>                  list length (u64 LE)
//	'o' <id8> 0x05                          object version counter (u64 LE)
//
// Field names may not contain NUL (enforced at type registration), so the
// 0x00 separator is unambiguous.
const (
	keyPrefixType   = 'T'
	keyPrefixObject = 'o'

	subHeader  = 0x00
	subValue   = 0x01
	subMapEnt  = 0x02
	subListEnt = 0x03
	subListLen = 0x04
	subVersion = 0x05
)

// TypeRecordKey returns the key persisting an object type definition.
func TypeRecordKey(name string) []byte {
	return append([]byte{keyPrefixType}, name...)
}

// objectPrefixLen is the length of the 'o' <id8> prefix of every object key.
const objectPrefixLen = 9

// appendObjectPrefix appends the prefix covering all keys of an object.
func appendObjectPrefix(dst []byte, id ObjectID) []byte {
	dst = append(dst, keyPrefixObject)
	return binary.BigEndian.AppendUint64(dst, uint64(id))
}

// The append*Key builders complete a key in place: dst already ends in the
// object's prefix. Host calls build every key this way in the invocation's
// scratch buffer (invocation.key), so a state access encodes its key
// without allocating.

// appendFieldKey covers the sub <field> layouts (and, with an empty field,
// the header and version keys).
func appendFieldKey(dst []byte, sub byte, field string) []byte {
	return append(append(dst, sub), field...)
}

// appendMapKey with a nil key yields the prefix of all entries of the map.
func appendMapKey(dst []byte, field string, key []byte) []byte {
	return append(append(appendFieldKey(dst, subMapEnt, field), 0), key...)
}

func appendListEntryKey(dst []byte, field string, idx uint64) []byte {
	return binary.BigEndian.AppendUint64(append(appendFieldKey(dst, subListEnt, field), 0), idx)
}

// newKey starts a freshly allocated key of the object with room for n more
// bytes. The builders below are the allocating forms, for everything that
// is not a host call: one exactly sized allocation per key. They are
// exported because the disaggregated baseline's storage layer shares this
// layout (the paper's baseline "uses our prototype as its storage layer"),
// so both designs read and write identical keys.
func newKey(id ObjectID, n int) []byte {
	return appendObjectPrefix(make([]byte, 0, objectPrefixLen+n), id)
}

// objectPrefix returns the prefix covering all keys of an object.
func objectPrefix(id ObjectID) []byte { return newKey(id, 0) }

// HeaderKey returns an object's existence/type record key.
func HeaderKey(id ObjectID) []byte { return appendFieldKey(newKey(id, 1), subHeader, "") }

// VersionKey returns an object's commit-version counter key.
func VersionKey(id ObjectID) []byte { return appendFieldKey(newKey(id, 1), subVersion, "") }

// ValueFieldKey returns the key of a value field.
func ValueFieldKey(id ObjectID, field string) []byte {
	return appendFieldKey(newKey(id, 1+len(field)), subValue, field)
}

// MapEntryKey returns the key of one map entry.
func MapEntryKey(id ObjectID, field string, key []byte) []byte {
	return appendMapKey(newKey(id, 2+len(field)+len(key)), field, key)
}

// MapFieldPrefix returns the prefix of all entries of a map field.
func MapFieldPrefix(id ObjectID, field string) []byte { return MapEntryKey(id, field, nil) }

// ListEntryKey returns the key of list element idx.
func ListEntryKey(id ObjectID, field string, idx uint64) []byte {
	return appendListEntryKey(newKey(id, 10+len(field)), field, idx)
}

// ListLenKey returns the key of a list field's length counter.
func ListLenKey(id ObjectID, field string) []byte {
	return appendFieldKey(newKey(id, 1+len(field)), subListLen, field)
}

// EncodeU64 renders a counter value (a version or a list length).
func EncodeU64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// DecodeU64 parses a counter value; missing/short values read as 0.
func DecodeU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// parseObjectID extracts the object ID from any object key.
func parseObjectID(key []byte) (ObjectID, error) {
	if len(key) < 9 || key[0] != keyPrefixObject {
		return 0, fmt.Errorf("core: not an object key: %q", key)
	}
	return ObjectID(binary.BigEndian.Uint64(key[1:9])), nil
}
