package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lambdastore/internal/telemetry"
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

// tableFuzzEntry is one entry of the valid table FuzzOpenTable damages.
type tableFuzzEntry struct {
	ikey  internalKey
	value []byte
}

// writeFuzzTable writes a table of a few data blocks — sets and tombstones
// under distinct user keys — to path and returns its entries in order.
func writeFuzzTable(f *testing.F, path string) []tableFuzzEntry {
	w, err := newTableWriter(path, testOptions())
	if err != nil {
		f.Fatal(err)
	}
	var entries []tableFuzzEntry
	for i := 0; i < 60; i++ {
		e := tableFuzzEntry{ikey: makeInternalKey(nil, []byte(fmt.Sprintf("key-%03d", i)), uint64(i+1), kindSet)}
		if i%7 == 3 {
			e.ikey = makeInternalKey(nil, e.ikey.userKey(), uint64(i+1), kindDelete)
		} else {
			e.value = bytes.Repeat([]byte{byte(i)}, 1+i%40)
		}
		w.add(e.ikey, e.value)
		entries = append(entries, e)
	}
	if _, _, _, err := w.finish(); err != nil {
		f.Fatal(err)
	}
	return entries
}

// FuzzOpenTable covers reading a damaged table through its mapping: the
// footer, the block handles and checksums, the index and the block cursor.
// Arbitrary bytes as a table never panic or fault, and every error they
// raise is ErrCorrupt. A valid table cut anywhere and with any one bit
// flipped either refuses with ErrCorrupt or serves exactly what was written
// — on open, over a full iteration and on a Get of every key.
func FuzzOpenTable(f *testing.F) {
	dir := f.TempDir()
	validPath := filepath.Join(dir, "valid.sst")
	entries := writeFuzzTable(f, validPath)
	valid, err := os.ReadFile(validPath)
	if err != nil {
		f.Fatal(err)
	}
	// A footer whose index length is 2^64-4: the handle's end wraps to its
	// offset, which an unsigned bound check on offset+length+4 let through.
	wrap := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(wrap[len(wrap)-footerLen+24:], ^uint64(0)-3)
	f.Add(wrap, uint32(len(valid)), uint32(0))
	f.Add([]byte{}, uint32(len(valid)-1), uint32(0))
	f.Add([]byte{}, uint32(len(valid)), uint32(8*(len(valid)-footerLen)+3))
	f.Add(valid[len(valid)-footerLen:], uint32(len(valid)/2), uint32(17))
	// Shorter than a footer, down to 0 bytes: refused before anything is
	// mapped (a mapping of 0 bytes fails with EINVAL).
	f.Add(valid[len(valid)-footerLen+1:], uint32(0), uint32(0))
	f.Add([]byte{0}, uint32(footerLen-1), uint32(3))

	path := filepath.Join(dir, "fuzz.sst")
	f.Fuzz(func(t *testing.T, data []byte, cut, flip uint32) {
		checkTable(t, path, data, nil)

		damaged := append([]byte(nil), valid[:int(cut)%(len(valid)+1)]...)
		if flip != 0 && len(damaged) > 0 {
			bit := int(flip) % (8 * len(damaged))
			damaged[bit/8] ^= 1 << (bit % 8)
		}
		intact := flip == 0 && len(damaged) == len(valid)
		if got := checkTable(t, path, damaged, entries); intact && !got {
			t.Fatal("the intact table refused to serve")
		}
	})
}

// checkTable writes data to path and reads it as a table: open, a full
// iteration, a Get of every user key in want and of one absent key. Each
// must either fail with ErrCorrupt or, when want is non-nil, return exactly
// want. It reports whether every read succeeded.
func checkTable(t *testing.T, path string, data []byte, want []tableFuzzEntry) bool {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", what, err)
		}
	}
	r, err := openTable(path)
	if err != nil {
		corrupt("open", err)
		return false
	}
	defer r.close()
	served := true

	it := r.iterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if want != nil && (n >= len(want) || !bytes.Equal(it.Key(), want[n].ikey) || !bytes.Equal(it.Value(), want[n].value)) {
			t.Fatalf("iteration entry %d = %q: not what was written", n, it.Key())
		}
		n++
	}
	if err := it.Error(); err != nil {
		corrupt("iterate", err)
		served = false
	} else if want != nil && n != len(want) {
		t.Fatalf("iterated %d entries without an error, wrote %d", n, len(want))
	}

	// One cursor serves every Get, so they resume in its block, step to
	// the next one or seek the index as a snapshot's reads do.
	var cur cursor
	var lookup internalKey
	get := func(key []byte) ([]byte, keyKind, bool, error) {
		lookup = makeInternalKey(lookup, key, maxSequence, kindSeek)
		v, kind, ok, err := cur.get(r, lookup, new(telemetry.Counter))
		if err != nil {
			corrupt("get", err)
			served = false
		}
		return v, kind, ok, err
	}
	for pass := 0; pass < 2; pass++ { // ascending, then descending
		for i := range want {
			e := want[i]
			if pass == 1 {
				e = want[len(want)-1-i]
			}
			v, kind, ok, err := get(e.ikey.userKey())
			if err == nil && (!ok || kind != e.ikey.kind() || !bytes.Equal(v, e.value)) {
				t.Fatalf("get %q = %q, kind %d, %v: not what was written", e.ikey.userKey(), v, kind, ok)
			}
		}
	}
	if v, _, ok, err := get([]byte("absent")); err == nil && ok && want != nil {
		t.Fatalf("get of an absent key found %q", v)
	}
	return served
}
