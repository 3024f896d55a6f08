package main

import (
	"os"
	"path/filepath"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/store"
)

// readKeys builds the keys a get_timeline(limit) reads on object id: the
// list length, then the newest limit entries. The length is read here,
// outside any span, because the entry keys depend on it.
func readKeys(n *cluster.Node, o op) ([][]byte, error) {
	length, err := n.Runtime().ListLen(o.obj, "timeline")
	if err != nil {
		return nil, err
	}
	keys := [][]byte{core.ListLenKey(o.obj, "timeline")}
	for i := int(length) - o.limit; i < int(length); i++ {
		if i >= 0 {
			keys = append(keys, core.ListEntryKey(o.obj, "timeline", uint64(i)))
		}
	}
	return keys, nil
}

// storeRead is the storage engine's point-read path alone — state cache,
// memtable, bloom filters, block cache, SSTables — over exactly the keys
// the op reads, on a replica's own DB, with no transaction, read set or
// guest around it.
func storeRead(n *cluster.Node, keys [][]byte) error {
	for _, k := range keys {
		if err := n.DB().VisitLatest(k, func([]byte, bool) {}); err != nil {
			return err
		}
	}
	return nil
}

// storeProbe owns a DB with the nodes' options on the nodes' filesystem,
// for timing one commit with nothing above it.
type storeProbe struct {
	db  *store.DB
	seq uint64
}

func newStoreProbe(dir string) (*storeProbe, error) {
	db, err := store.Open(dir, storeOptions())
	if err != nil {
		return nil, err
	}
	return &storeProbe{db: db}, nil
}

func (p *storeProbe) close() { p.db.Close() } //nolint:errcheck // teardown

// postWriteSet is the write-set one store_post commits: the timeline
// entry, the list length and the object's version counter.
func (p *storeProbe) postWriteSet() *store.Batch {
	p.seq++
	b := store.NewBatch()
	b.Put(core.ListEntryKey(1, "timeline", p.seq), make([]byte, 16+postBodyLen))
	b.Put(core.ListLenKey(1, "timeline"), core.EncodeU64(p.seq+1))
	b.Put(core.VersionKey(1), core.EncodeU64(p.seq))
	return b
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error { //nolint:errcheck // best effort
		if err == nil && !e.IsDir() {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
