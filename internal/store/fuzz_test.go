package store

import (
	"testing"

	"lambdastore/internal/wire/wiretest"
)

func fuzzBatch() *Batch {
	b := NewBatch()
	b.Put([]byte("o\x00\x07name"), []byte("alice"))
	b.Delete([]byte("o\x00\x07tmp"))
	b.Put([]byte("k"), nil)
	b.startSeq = 1 << 33
	return b
}

// FuzzBatchDecode covers the write-set format: the WAL record payload and
// what replication ships.
func FuzzBatchDecode(f *testing.F) {
	wiretest.Fuzz(f,
		wiretest.Of("batch", fuzzBatch(), (*Batch).Encode, DecodeBatch),
		wiretest.Of("empty", NewBatch(), (*Batch).Encode, DecodeBatch),
	)
}

// FuzzVersionEdit covers the manifest's record format and the block handles
// an index block and the table footer point with.
func FuzzVersionEdit(f *testing.F) {
	edit := wiretest.Of("edit", &versionEdit{
		logNumber: 12, nextFileNum: 40, lastSeq: 1 << 33,
		added: []editAdd{{level: 0, meta: &tableMeta{fileNum: 39, size: 4 << 20,
			smallest: makeInternalKey(nil, []byte("a"), 9, kindSet), largest: makeInternalKey(nil, []byte("zz"), 3, kindDelete)}}},
		deleted: []editDelete{{level: 1, fileNum: 17}, {level: numLevels - 1, fileNum: 2}},
	}, func(e *versionEdit) []byte { return e.encode(nil) }, decodeVersionEdit)
	edit.Extensible = true // a sequence of tagged records
	wiretest.Fuzz(f, edit,
		wiretest.Of("handle", blockHandle{offset: 1 << 30, length: 4096}, func(h blockHandle) []byte { return h.encode(nil) }, decodeHandle),
	)
}
