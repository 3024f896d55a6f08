package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// tableEntries returns n entries in internal-key order with values of a
// size that puts about eight in a testOptions block.
func tableEntries(n int) (keys []internalKey, values [][]byte) {
	for i := 0; i < n; i++ {
		keys = append(keys, makeInternalKey(nil, []byte(fmt.Sprintf("writer-key-%06d", i)), uint64(i+1), kindSet))
		values = append(values, bytes.Repeat([]byte{byte('a' + i%26)}, 100))
	}
	return keys, values
}

func writeTable(tb testing.TB, path string, keys []internalKey, values [][]byte) {
	tb.Helper()
	w, err := newTableWriter(path, testOptions())
	if err != nil {
		tb.Fatal(err)
	}
	for i := range keys {
		w.add(keys[i], values[i])
	}
	if _, _, _, err := w.finish(); err != nil {
		tb.Fatal(err)
	}
}

// TestTableWriterReusesItsScratch writes a table of well over 64 blocks
// through one writer, whose block builders, separator and handle scratch
// serve every block in turn: the table must read back entry for entry, every
// block's CRC must verify, and writing it must allocate no more than writing
// a 4-block table — nothing per block, and with the scratch pooled from table
// to table, nothing regrown per table either.
func TestTableWriterReusesItsScratch(t *testing.T) {
	dir := t.TempDir()
	keys, values := tableEntries(640)
	path := filepath.Join(dir, "big.sst")
	writeTable(t, path, keys, values)

	r, err := openTable(path) // verifies every block once
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	blocks := 0
	idx := r.index.iterator()
	for idx.SeekToFirst(); idx.Valid(); idx.Next() {
		h, err := decodeHandle(idx.Value())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.blockBytes(h, true); err != nil {
			t.Fatalf("block %d: %v", blocks, err)
		}
		blocks++
	}
	if blocks < 64 {
		t.Fatalf("the table has %d blocks, want at least 64", blocks)
	}
	it := r.iterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if i >= len(keys) || !bytes.Equal(it.Key(), keys[i]) || !bytes.Equal(it.Value(), values[i]) {
			t.Fatalf("entry %d reads back as %v = %q", i, it.Key(), it.Value())
		}
		i++
	}
	if err := it.Error(); err != nil || i != len(keys) {
		t.Fatalf("read back %d of %d entries: %v", i, len(keys), err)
	}

	smallKeys, smallValues := tableEntries(len(keys) * 4 / blocks)
	small := testing.AllocsPerRun(5, func() { writeTable(t, filepath.Join(dir, "small.sst"), smallKeys, smallValues) })
	big := testing.AllocsPerRun(5, func() { writeTable(t, path, keys, values) })
	t.Logf("a %d-block table: %.0f allocs; a 4-block one: %.0f", blocks, big, small)
	if big > small+4 && !raceEnabled {
		t.Fatalf("a %d-block table allocates %.0f objects, a 4-block one %.0f: the writer pays per block", blocks, big, small)
	}
}
