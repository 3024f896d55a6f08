package store

import "sync"

// tableCache keeps SSTable readers open and refcounted. Readers stay cached
// until compaction obsoletes their table; a reader is unmapped only when its
// last reference is released — the cache's own residency reference included
// — so point reads and iterators never touch an unmapped page, not even
// past DB.Close.
type tableCache struct {
	mu     sync.Mutex
	dir    string
	tables map[uint64]*cachedTable
	closed bool // set by closeAll: nothing opens a table any more
}

type cachedTable struct {
	reader *tableReader
	// refs counts active users plus one for cache residency.
	refs int
}

func newTableCache(dir string) *tableCache {
	return &tableCache{dir: dir, tables: make(map[uint64]*cachedTable)}
}

// acquire returns table fileNum's cache entry with a reference taken; the
// caller reads through ct.reader and must release(ct) when done.
func (c *tableCache) acquire(fileNum uint64) (*cachedTable, error) {
	c.mu.Lock()
	ct, err := c.refLocked(fileNum)
	c.mu.Unlock()
	if ct != nil || err != nil {
		return ct, err
	}

	// Open outside the lock; racing opens are reconciled below.
	r, err := openTable(tablePath(c.dir, fileNum))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ct, err := c.refLocked(fileNum); ct != nil || err != nil {
		r.close()
		return ct, err
	}
	ct = &cachedTable{reader: r, refs: 2} // 1 residency + 1 caller
	c.tables[fileNum] = ct
	return ct, nil
}

// refLocked takes a reference on fileNum's entry if it is open. Called with
// c.mu held.
func (c *tableCache) refLocked(fileNum uint64) (*cachedTable, error) {
	if c.closed {
		return nil, ErrClosed
	}
	ct := c.tables[fileNum]
	if ct != nil {
		ct.refs++
	}
	return ct, nil
}

// release drops one reference; the last one unmaps the table.
func (c *tableCache) release(ct *cachedTable) {
	c.mu.Lock()
	ct.refs--
	last := ct.refs == 0
	c.mu.Unlock()
	if last {
		ct.reader.close()
	}
}

// evict drops the cache's residency reference for fileNum; the reader is
// unmapped once in-flight users drain. Safe to call for tables never opened.
func (c *tableCache) evict(fileNum uint64) {
	c.mu.Lock()
	ct, ok := c.tables[fileNum]
	delete(c.tables, fileNum)
	c.mu.Unlock()
	if ok {
		c.release(ct)
	}
}

// closeAll evicts every table (DB shutdown): what an iterator still holds
// stays mapped until the iterator lets go.
func (c *tableCache) closeAll() {
	c.mu.Lock()
	tables := c.tables
	c.tables, c.closed = nil, true
	c.mu.Unlock()
	for _, ct := range tables {
		c.release(ct)
	}
}

// releasingIter ties a table-cache reference to the lifetime of an
// iterator over that table: Close releases it.
type releasingIter struct {
	internalIterator
	tcache *tableCache
	ct     *cachedTable
}

// tableIterator opens table fileNum and returns an iterator over it that
// holds the table open until it is closed.
func (c *tableCache) tableIterator(fileNum uint64) (internalIterator, error) {
	ct, err := c.acquire(fileNum)
	if err != nil {
		return nil, err
	}
	return &releasingIter{internalIterator: ct.reader.iterator(), tcache: c, ct: ct}, nil
}

func (r *releasingIter) Close() error {
	err := r.internalIterator.Close()
	if r.ct != nil {
		r.tcache.release(r.ct)
		r.ct = nil
	}
	return err
}
