package store

import "sync"

// tableCache keeps SSTable readers open and refcounted. Readers stay cached
// until compaction obsoletes their table; an obsolete reader is closed as
// soon as its last in-flight user releases it, so point reads and iterators
// never race with file teardown.
type tableCache struct {
	mu     sync.Mutex
	dir    string
	tables map[uint64]*cachedTable
	blocks *blockCache // shared across all readers, may be nil
}

type cachedTable struct {
	reader *tableReader
	// refs counts active users plus one for cache residency.
	refs int
	dead bool
}

func newTableCache(dir string, blockCacheBytes int) *tableCache {
	return &tableCache{
		dir:    dir,
		tables: make(map[uint64]*cachedTable),
		blocks: newBlockCache(blockCacheBytes),
	}
}

// acquire returns table fileNum's cache entry with a reference taken; the
// caller reads through ct.reader and must release(ct) when done.
func (c *tableCache) acquire(fileNum uint64) (*cachedTable, error) {
	c.mu.Lock()
	ct, ok := c.tables[fileNum]
	if ok {
		ct.refs++
		c.mu.Unlock()
		return ct, nil
	}
	c.mu.Unlock()

	// Open outside the lock; racing opens are reconciled below.
	r, err := openTable(tablePath(c.dir, fileNum), c.blocks)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if existing, ok := c.tables[fileNum]; ok {
		existing.refs++
		c.mu.Unlock()
		r.close()
		return existing, nil
	}
	ct = &cachedTable{reader: r, refs: 2} // 1 residency + 1 caller
	c.tables[fileNum] = ct
	c.mu.Unlock()
	return ct, nil
}

func (c *tableCache) release(ct *cachedTable) {
	c.mu.Lock()
	ct.refs--
	shouldClose := ct.dead && ct.refs == 0
	c.mu.Unlock()
	if shouldClose {
		ct.reader.close()
	}
}

// evict drops the cache's residency reference for fileNum; the reader closes
// once in-flight users drain. Safe to call for tables never opened.
func (c *tableCache) evict(fileNum uint64) {
	c.mu.Lock()
	ct, ok := c.tables[fileNum]
	if !ok {
		c.mu.Unlock()
		return
	}
	delete(c.tables, fileNum)
	ct.dead = true
	ct.refs--
	shouldClose := ct.refs == 0
	c.mu.Unlock()
	if shouldClose {
		ct.reader.close()
	}
}

// closeAll closes every cached reader (DB shutdown).
func (c *tableCache) closeAll() {
	c.mu.Lock()
	tables := c.tables
	c.tables = make(map[uint64]*cachedTable)
	c.mu.Unlock()
	for _, ct := range tables {
		ct.reader.close()
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
