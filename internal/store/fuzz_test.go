package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lambdastore/internal/wire"
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
	decode := func(data []byte) (*Batch, error) {
		b := NewBatch()
		return b, b.Decode(data)
	}
	wiretest.Fuzz(f,
		wiretest.Of("batch", fuzzBatch(), (*Batch).Encode, decode),
		wiretest.Of("empty", NewBatch(), (*Batch).Encode, decode),
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

// walFuzzBatches is the content of the valid log FuzzWALReplay damages:
// sets, tombstones, rewritten keys and one value that needs a chunk of its
// own, under consecutive sequence numbers as the DB assigns them.
func walFuzzBatches() []*Batch {
	var batches []*Batch
	seq := uint64(1)
	for i := 0; i < 12; i++ {
		b := NewBatch()
		for j := 0; j <= i%4; j++ {
			key := []byte{'k', byte('a' + (i+j)%7)}
			if (i+j)%5 == 0 {
				b.Delete(key)
			} else {
				b.Put(key, bytes.Repeat([]byte{byte(i)}, 1+37*j))
			}
		}
		if i == 7 {
			b.Put([]byte("big"), make([]byte, arenaMaxChunkBytes+1))
		}
		b.startSeq = seq
		seq += uint64(b.count)
		batches = append(batches, b)
	}
	return batches
}

// FuzzWALReplay covers recovery from a damaged log: replayWAL's framing,
// Batch.Decode and apply into the arena. Arbitrary bytes as a log never
// panic and allocate no more than a multiple of their length. A valid log
// cut anywhere and with any one bit flipped recovers without an error —
// damage is a torn tail — exactly the entries of a prefix of its batches;
// an intact cut recovers every batch whose frame it holds.
func FuzzWALReplay(f *testing.F) {
	batches := walFuzzBatches()
	var valid []byte
	var frameEnds []int
	for _, b := range batches {
		valid = wire.AppendFrame(valid, b.Encode())
		frameEnds = append(frameEnds, len(valid))
	}
	// Short seeds for the arbitrary half: the engine minimizes what it finds
	// interesting, which a 70 KB input makes slow.
	f.Add(valid[:frameEnds[2]], uint32(len(valid)), uint32(0))
	f.Add(valid[:frameEnds[1]-2], uint32(len(valid)/2), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint32(frameEnds[3]), uint32(8*frameEnds[1]+3))
	f.Add([]byte{}, uint32(frameEnds[8]-1), uint32(1))

	path := filepath.Join(f.TempDir(), "fuzz.valid")
	replay := func(t *testing.T, data []byte) (*memtable, error) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := newMemtable()
		_, err := recoverLog(path, m)
		return m, err
	}
	f.Fuzz(func(t *testing.T, data []byte, cut, flip uint32) {
		// Arbitrary bytes: total, and bounded. A record of two bytes makes
		// a node of at most nodeHeaderBytes + a full tower + a trailer.
		bound := uint64(4*arenaMaxChunkBytes + 64*len(data))
		if got := wiretest.AllocBytes(func() { replay(t, data) }); got > bound { //nolint:errcheck // any outcome but a panic
			t.Fatalf("replaying %d arbitrary bytes allocated %d, more than %d", len(data), got, bound)
		}

		// The valid valid, damaged.
		damaged := append([]byte(nil), valid[:int(cut)%(len(valid)+1)]...)
		if flip != 0 && len(damaged) > 0 {
			bit := int(flip) % (8 * len(damaged))
			damaged[bit/8] ^= 1 << (bit % 8)
		}
		m, err := replay(t, damaged)
		if err != nil {
			t.Fatalf("a torn or flipped valid must end replay quietly, got %v", err)
		}
		recovered := m.len()
		whole, entries := 0, 0
		for whole < len(batches) && entries < recovered {
			entries += batches[whole].count
			whole++
		}
		if entries != recovered {
			t.Fatalf("recovered %d entries: not a whole number of the valid's leading batches", recovered)
		}
		if flip == 0 {
			if want := sort.SearchInts(frameEnds, len(damaged)+1); whole != want {
				t.Fatalf("a valid cut at %d recovered %d batches, want %d", len(damaged), whole, want)
			}
		}
		for _, b := range batches[:whole] {
			seq := b.startSeq
			b.ForEach(func(kind byte, key, value []byte) error { //nolint:errcheck // fn returns nil
				v, k, ok := m.get(makeInternalKey(nil, key, seq, kindSeek))
				if !ok || k != keyKind(kind) || !bytes.Equal(v, value) {
					t.Fatalf("%q@%d: recovered %d bytes, kind %d, %v; logged %d bytes, kind %d", key, seq, len(v), k, ok, len(value), kind)
				}
				seq++
				return nil
			})
		}
	})
}
