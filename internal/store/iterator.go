package store

import "bytes"

// internalIterator walks entries in internal-key order (user key ascending,
// sequence descending). Implementations: memtable, table, merging and
// concatenating iterators.
type internalIterator interface {
	SeekToFirst()
	SeekGE(ik internalKey)
	Next()
	Valid() bool
	Key() internalKey
	Value() []byte
	Error() error
	Close() error
}

// mergingIter merges several internalIterators into one ordered stream.
// With the small fan-in the DB produces (memtables + L0 tables + one per
// deeper level) a linear scan for the minimum is as fast as a heap and much
// simpler.
type mergingIter struct {
	iters   []internalIterator
	current int // index of iterator holding the smallest key, -1 if done
	err     error
}

func newMergingIter(iters ...internalIterator) *mergingIter {
	return &mergingIter{iters: iters, current: -1}
}

// findSmallest scans children for the minimal current key. Ties are won by
// the earlier child, so callers must order children newest-first; the
// sequence-number trailer already breaks ties for identical user keys.
func (m *mergingIter) findSmallest() {
	m.current = -1
	var best internalKey
	for i, it := range m.iters {
		if !it.Valid() {
			if err := it.Error(); err != nil && m.err == nil {
				m.err = err
			}
			continue
		}
		if best == nil || compareInternal(it.Key(), best) < 0 {
			best = it.Key()
			m.current = i
		}
	}
}

func (m *mergingIter) SeekToFirst() {
	for _, it := range m.iters {
		it.SeekToFirst()
	}
	m.findSmallest()
}

func (m *mergingIter) SeekGE(ik internalKey) {
	for _, it := range m.iters {
		it.SeekGE(ik)
	}
	m.findSmallest()
}

func (m *mergingIter) Next() {
	if m.current < 0 {
		return
	}
	m.iters[m.current].Next()
	m.findSmallest()
}

func (m *mergingIter) Valid() bool { return m.current >= 0 }

func (m *mergingIter) Key() internalKey {
	if m.current < 0 {
		return nil
	}
	return m.iters[m.current].Key()
}

func (m *mergingIter) Value() []byte {
	if m.current < 0 {
		return nil
	}
	return m.iters[m.current].Value()
}

func (m *mergingIter) Error() error { return m.err }

func (m *mergingIter) Close() error {
	for _, it := range m.iters {
		if err := it.Close(); err != nil && m.err == nil {
			m.err = err
		}
	}
	return m.err
}

// concatIter iterates the tables of one level >= 1 (sorted, non-overlapping)
// lazily, holding one table open at a time. Whoever builds it keeps the
// version that lists the tables referenced for as long as it is in use.
type concatIter struct {
	tables []*tableMeta
	tcache *tableCache
	idx    int // start at -1
	cur    internalIterator
	err    error
}

func (c *concatIter) openAt(i int) bool {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
	if i < 0 || i >= len(c.tables) {
		c.idx = len(c.tables)
		return false
	}
	it, err := c.tcache.tableIterator(c.tables[i].fileNum)
	if err != nil {
		c.err = err
		c.idx = len(c.tables)
		return false
	}
	c.cur = it
	c.idx = i
	return true
}

func (c *concatIter) SeekToFirst() {
	if c.openAt(0) {
		c.cur.SeekToFirst()
		c.skipForward()
	}
}

func (c *concatIter) SeekGE(ik internalKey) {
	if c.openAt(findTable(c.tables, ik)) {
		c.cur.SeekGE(ik)
		c.skipForward()
	}
}

func (c *concatIter) skipForward() {
	for c.cur != nil && !c.cur.Valid() {
		if err := c.cur.Error(); err != nil {
			c.err = err
			c.cur.Close()
			c.cur = nil
			return
		}
		if !c.openAt(c.idx + 1) {
			return
		}
		c.cur.SeekToFirst()
	}
}

func (c *concatIter) Next() {
	if c.cur == nil {
		return
	}
	c.cur.Next()
	c.skipForward()
}

func (c *concatIter) Valid() bool { return c.cur != nil && c.cur.Valid() }

func (c *concatIter) Key() internalKey {
	if !c.Valid() {
		return nil
	}
	return c.cur.Key()
}

func (c *concatIter) Value() []byte {
	if !c.Valid() {
		return nil
	}
	return c.cur.Value()
}

func (c *concatIter) Error() error { return c.err }

func (c *concatIter) Close() error {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
	return c.err
}

// Iterator is the user-facing ordered cursor over live keys at one
// snapshot: internal versions are collapsed to the newest visible one and
// tombstoned keys are skipped.
type Iterator struct {
	it     internalIterator
	seq    uint64
	key    []byte
	value  []byte
	valid  bool
	err    error
	closer func()
}

// SeekToFirst positions at the smallest live key.
func (i *Iterator) SeekToFirst() {
	i.it.SeekToFirst()
	i.settle()
}

// Seek positions at the first live key >= userKey.
func (i *Iterator) Seek(userKey []byte) {
	i.it.SeekGE(makeInternalKey(nil, userKey, i.seq, kindSeek))
	i.settle()
}

// Next advances to the next live key.
func (i *Iterator) Next() {
	if !i.valid {
		return
	}
	i.stepPastCurrentUserKey()
	i.settle()
}

// stepPastCurrentUserKey advances the internal iterator beyond every
// version of the current user key.
func (i *Iterator) stepPastCurrentUserKey() {
	for i.it.Valid() && bytes.Equal(i.it.Key().userKey(), i.key) {
		i.it.Next()
	}
}

// settle advances until positioned on the newest visible, non-deleted
// version of some user key.
func (i *Iterator) settle() {
	i.valid = false
	for i.it.Valid() {
		ik := i.it.Key()
		if ik.seq() > i.seq {
			// Version newer than the snapshot: skip just this entry.
			i.it.Next()
			continue
		}
		if ik.kind() == kindDelete {
			// Tombstone: skip all versions of this user key.
			i.key = append(i.key[:0], ik.userKey()...)
			i.stepPastCurrentUserKey()
			continue
		}
		i.key = append(i.key[:0], ik.userKey()...)
		i.value = append(i.value[:0], i.it.Value()...)
		i.valid = true
		return
	}
	if err := i.it.Error(); err != nil {
		i.err = err
	}
}

// Valid reports whether the iterator is positioned on a live key.
func (i *Iterator) Valid() bool { return i.valid }

// Key returns the current key. The slice is stable until the next movement.
func (i *Iterator) Key() []byte {
	if !i.valid {
		return nil
	}
	return i.key
}

// Value returns the current value. The slice is stable until the next
// movement.
func (i *Iterator) Value() []byte {
	if !i.valid {
		return nil
	}
	return i.value
}

// Error returns the first error the iterator encountered.
func (i *Iterator) Error() error { return i.err }

// Close releases iterator resources (including its snapshot pin).
func (i *Iterator) Close() error {
	err := i.it.Close()
	if i.closer != nil {
		i.closer()
		i.closer = nil
	}
	if i.err == nil {
		i.err = err
	}
	return i.err
}
