package store

import (
	"bytes"
	"fmt"
	"os"
	"time"
)

// Background work: memtable flushes and leveled compactions. One goroutine
// per DB performs all background I/O, which keeps version edits trivially
// serialized.

// backgroundLoop runs until Close.
func (db *DB) backgroundLoop() {
	defer close(db.bgDone)
	for {
		select {
		case <-db.bgQuit:
			return
		case <-db.bgWork:
		}
		for {
			db.mu.Lock()
			if db.closed || db.bgErr != nil {
				db.cond.Broadcast()
				db.mu.Unlock()
				if db.closed {
					return
				}
				break
			}
			var work func() error
			switch {
			case db.imm != nil:
				work = db.meteredFlush
			case db.pickCompactionLevel() >= 0:
				work = db.meteredCompact
			}
			if work == nil {
				db.bgActive = false
				db.cond.Broadcast()
				db.mu.Unlock()
				break
			}
			db.bgActive = true
			db.mu.Unlock()

			if err := work(); err != nil {
				db.mu.Lock()
				db.bgErr = fmt.Errorf("store: background: %w", err)
				db.bgActive = false
				db.cond.Broadcast()
				db.mu.Unlock()
				break
			}
			db.mu.Lock()
			db.bgActive = false
			db.cond.Broadcast()
			db.mu.Unlock()
		}
	}
}

// meteredFlush runs flushMemtable, counting successful flushes.
func (db *DB) meteredFlush() error {
	err := db.flushMemtable()
	if err == nil {
		db.metrics.flushes.Inc()
	}
	return err
}

// meteredCompact runs compactOnce, counting rounds and recording their
// duration.
func (db *DB) meteredCompact() error {
	start := time.Now()
	err := db.compactOnce()
	if err == nil {
		db.metrics.compactions.Inc()
		db.metrics.compactUs.Record(time.Since(start))
	}
	return err
}

// flushMemtable writes db.imm to a new L0 table and retires its WAL.
func (db *DB) flushMemtable() error {
	db.mu.Lock()
	imm := db.imm
	immWal := db.immWal
	fileNum := db.nextFile
	db.nextFile++
	nextFile := db.nextFile
	walNum := db.walNum
	lastSeq := db.lastSeq
	db.mu.Unlock()

	if imm == nil {
		return nil
	}

	path := tablePath(db.dir, fileNum)
	w, err := newTableWriter(path, db.opts)
	if err != nil {
		return err
	}
	it := imm.iterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		w.add(it.Key(), it.Value())
	}
	smallest, largest, size, err := w.finish()
	if err != nil {
		w.abandon(path)
		return err
	}

	edit := &versionEdit{
		logNumber:   walNum,
		nextFileNum: nextFile,
		lastSeq:     lastSeq,
		added: []editAdd{{level: 0, meta: &tableMeta{
			fileNum: fileNum, size: size, smallest: smallest, largest: largest,
		}}},
	}
	if err := db.man.append(edit); err != nil {
		return err
	}

	db.mu.Lock()
	old := db.setCurrent(edit.apply(db.current))
	db.imm = nil
	db.cond.Broadcast()
	db.mu.Unlock()
	db.unref(old)

	os.Remove(walPath(db.dir, immWal))
	return nil
}

// maxBytesForLevel returns the size budget of level (level >= 1).
func (db *DB) maxBytesForLevel(level int) int64 {
	max := db.opts.LevelBaseBytes
	for l := 1; l < level; l++ {
		max *= db.opts.LevelMultiplier
	}
	return max
}

// pickCompactionLevel returns the level most in need of compaction, or -1.
// Called with db.mu held.
func (db *DB) pickCompactionLevel() int {
	best, bestScore := -1, 1.0
	score := float64(len(db.current.levels[0])) / float64(db.opts.L0CompactionTrigger)
	if score >= bestScore {
		best, bestScore = 0, score
	}
	for level := 1; level < numLevels-1; level++ {
		score := float64(db.current.levelBytes(level)) / float64(db.maxBytesForLevel(level))
		if score > bestScore {
			best, bestScore = level, score
		}
	}
	return best
}

// compactOnce performs one compaction from the neediest level into the next.
func (db *DB) compactOnce() error {
	db.mu.Lock()
	level := db.pickCompactionLevel()
	if level < 0 {
		db.mu.Unlock()
		return nil
	}
	v := db.current
	smallestSnapshot := db.smallestSnapshot()

	// Choose input tables at `level`.
	var inputs []*tableMeta
	if level == 0 {
		// All L0 tables compact together: they overlap arbitrarily.
		inputs = append(inputs, v.levels[0]...)
	} else {
		// Round-robin cursor over the level's key space.
		ptr := db.compactPtr[level]
		for _, t := range v.levels[level] {
			if ptr == nil || bytes.Compare(t.largest.userKey(), ptr) > 0 {
				inputs = append(inputs, t)
				break
			}
		}
		if len(inputs) == 0 && len(v.levels[level]) > 0 {
			inputs = append(inputs, v.levels[level][0])
		}
	}
	if len(inputs) == 0 {
		db.mu.Unlock()
		return nil
	}

	// Key range of the inputs.
	lo := inputs[0].smallest.userKey()
	hi := inputs[0].largest.userKey()
	for _, t := range inputs[1:] {
		if bytes.Compare(t.smallest.userKey(), lo) < 0 {
			lo = t.smallest.userKey()
		}
		if bytes.Compare(t.largest.userKey(), hi) > 0 {
			hi = t.largest.userKey()
		}
	}

	// Overlapping tables in the output level join the merge.
	outLevel := level + 1
	overlaps := v.overlapping(outLevel, lo, hi)
	inputs2 := append([]*tableMeta(nil), overlaps...)

	// The output level is the base level for a key if no deeper level
	// overlaps; only then may tombstones be dropped.
	isBase := true
	for l := outLevel + 1; l < numLevels; l++ {
		if len(v.overlapping(l, lo, hi)) > 0 {
			isBase = false
			break
		}
	}
	db.compactPtr[level] = append([]byte(nil), hi...)
	db.mu.Unlock()

	return db.runCompaction(level, inputs, inputs2, smallestSnapshot, isBase)
}

// runCompaction merges inputs (level) and inputs2 (level+1) into new tables
// at level+1, dropping shadowed versions and obsolete tombstones.
func (db *DB) runCompaction(level int, inputs, inputs2 []*tableMeta, smallestSnapshot uint64, isBase bool) error {
	outLevel := level + 1

	// Build the merged input iterator; each table stays open until its
	// iterator is closed.
	var iters []internalIterator
	for _, t := range append(append([]*tableMeta(nil), inputs...), inputs2...) {
		it, err := db.tcache.tableIterator(t.fileNum)
		if err != nil {
			newMergingIter(iters...).Close()
			return err
		}
		iters = append(iters, it)
	}
	merged := newMergingIter(iters...)
	defer merged.Close()

	var (
		outputs     []editAdd
		cur         *tableWriter
		curNum      uint64
		curPath     string
		lastUserKey []byte
		haveLast    bool
		lastKeptSeq uint64
	)
	targetSize := db.maxBytesForLevel(outLevel) / 4
	if targetSize < int64(db.opts.MemtableBytes) {
		targetSize = int64(db.opts.MemtableBytes)
	}

	newOutput := func() error {
		db.mu.Lock()
		curNum = db.nextFile
		db.nextFile++
		db.mu.Unlock()
		curPath = tablePath(db.dir, curNum)
		var err error
		cur, err = newTableWriter(curPath, db.opts)
		return err
	}
	finishOutput := func() error {
		if cur == nil {
			return nil
		}
		smallest, largest, size, err := cur.finish()
		if err != nil {
			cur.abandon(curPath)
			return err
		}
		if size > 0 && cur.numEntries > 0 {
			outputs = append(outputs, editAdd{level: outLevel, meta: &tableMeta{
				fileNum: curNum, size: size, smallest: smallest, largest: largest,
			}})
		} else {
			os.Remove(curPath)
		}
		cur = nil
		return nil
	}

	for merged.SeekToFirst(); merged.Valid(); merged.Next() {
		ik := merged.Key()
		user := ik.userKey()
		seq := ik.seq()

		firstOccurrence := !haveLast || !bytes.Equal(user, lastUserKey)
		if firstOccurrence {
			lastUserKey = append(lastUserKey[:0], user...)
			haveLast = true
			lastKeptSeq = maxSequence
		}

		drop := false
		if lastKeptSeq <= smallestSnapshot {
			// A newer version of this user key is already visible to every
			// snapshot; this one is shadowed.
			drop = true
		} else if ik.kind() == kindDelete && seq <= smallestSnapshot && isBase {
			// Tombstone with nothing underneath it to hide.
			drop = true
			lastKeptSeq = seq
		}
		if drop {
			continue
		}
		lastKeptSeq = seq

		if cur == nil {
			if err := newOutput(); err != nil {
				return err
			}
		}
		cur.add(ik, merged.Value())
		if cur.offset >= uint64(targetSize) {
			if err := finishOutput(); err != nil {
				return err
			}
		}
	}
	if err := merged.Error(); err != nil {
		if cur != nil {
			cur.abandon(curPath)
		}
		return err
	}
	if err := finishOutput(); err != nil {
		return err
	}

	// Install the result.
	edit := &versionEdit{added: outputs}
	for _, t := range inputs {
		edit.deleted = append(edit.deleted, editDelete{level: level, fileNum: t.fileNum})
	}
	for _, t := range inputs2 {
		edit.deleted = append(edit.deleted, editDelete{level: outLevel, fileNum: t.fileNum})
	}
	db.mu.Lock()
	edit.nextFileNum = db.nextFile
	edit.lastSeq = db.lastSeq
	db.mu.Unlock()
	if err := db.man.append(edit); err != nil {
		return err
	}
	db.mu.Lock()
	old := db.setCurrent(edit.apply(db.current))
	db.cond.Broadcast()
	db.mu.Unlock()

	// Retire the inputs: dropping the replaced version's reference unlinks
	// them, now or when the last read that captured it finishes.
	db.unref(old)
	return nil
}
