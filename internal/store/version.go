package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"lambdastore/internal/wire"
)

// numLevels is the depth of the LSM tree (LevelDB's value).
const numLevels = 7

// tableMeta describes one SSTable in some level. Versions share metas by
// pointer.
type tableMeta struct {
	fileNum  uint64
	size     uint64
	smallest internalKey
	largest  internalKey
	// refs counts the installed versions that list this table (see
	// DB.setCurrent/unref); the file is unlinked when it drops to zero.
	refs atomic.Int32
}

// overlaps reports whether the table's user-key range intersects
// [lo, hi]. Nil bounds mean unbounded.
func (t *tableMeta) overlaps(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(t.smallest.userKey(), hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(t.largest.userKey(), lo) < 0 {
		return false
	}
	return true
}

// version is an immutable snapshot of the table layout. L0 tables overlap
// and are ordered newest-first; deeper levels are sorted by smallest key
// and non-overlapping.
type version struct {
	levels [numLevels][]*tableMeta
	// refs counts who may still read this version's tables: one for being
	// db.current, one per in-flight point read and per open iterator that
	// captured it (LevelDB's Version::Ref).
	refs atomic.Int32
}

// findTable returns the index of the first table of a sorted level whose
// largest key is >= ik, or len(tables).
func findTable(tables []*tableMeta, ik internalKey) int {
	lo, hi := 0, len(tables)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareInternal(tables[mid].largest, ik) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// clone returns a shallow copy whose level slices can be mutated
// independently.
func (v *version) clone() *version {
	nv := &version{}
	for i := range v.levels {
		nv.levels[i] = append([]*tableMeta(nil), v.levels[i]...)
	}
	return nv
}

// levelBytes returns the total file size of a level.
func (v *version) levelBytes(level int) int64 {
	var n int64
	for _, t := range v.levels[level] {
		n += int64(t.size)
	}
	return n
}

// overlapping returns the tables in level whose ranges intersect [lo, hi].
func (v *version) overlapping(level int, lo, hi []byte) []*tableMeta {
	var out []*tableMeta
	for _, t := range v.levels[level] {
		if t.overlaps(lo, hi) {
			out = append(out, t)
		}
	}
	return out
}

// flushLevel is the level a flushed table of user keys [lo, hi] joins: L1
// when no table of L0 or L1 overlaps it — nothing newer of its keys sits
// above it then, and it fits between L1's tables — else L0 (LevelDB's
// PickLevelForMemTableOutput, without its push further down). Keys flushed
// in order, as a bulk load writes them, so skip the L0-to-L1 rewrite.
func (v *version) flushLevel(lo, hi []byte) int {
	for level := 0; level <= 1; level++ {
		for _, t := range v.levels[level] {
			if t.overlaps(lo, hi) {
				return 0
			}
		}
	}
	return 1
}

// versionEdit is one manifest record: a delta applied to a version.
type versionEdit struct {
	logNumber   uint64 // WAL file the new version depends on (0 = unchanged)
	nextFileNum uint64
	lastSeq     uint64
	added       []editAdd
	deleted     []editDelete
}

type editAdd struct {
	level int
	meta  *tableMeta
}

type editDelete struct {
	level   int
	fileNum uint64
}

// Manifest record field tags.
const (
	tagLogNumber   = 1
	tagNextFileNum = 2
	tagLastSeq     = 3
	tagAddTable    = 4
	tagDeleteTable = 5
)

func (e *versionEdit) encode(dst []byte) []byte {
	if e.logNumber != 0 {
		dst = wire.AppendUvarint(dst, tagLogNumber)
		dst = wire.AppendUvarint(dst, e.logNumber)
	}
	if e.nextFileNum != 0 {
		dst = wire.AppendUvarint(dst, tagNextFileNum)
		dst = wire.AppendUvarint(dst, e.nextFileNum)
	}
	if e.lastSeq != 0 {
		dst = wire.AppendUvarint(dst, tagLastSeq)
		dst = wire.AppendUvarint(dst, e.lastSeq)
	}
	for _, a := range e.added {
		dst = wire.AppendUvarint(dst, tagAddTable)
		dst = wire.AppendUvarint(dst, uint64(a.level))
		dst = wire.AppendUvarint(dst, a.meta.fileNum)
		dst = wire.AppendUvarint(dst, a.meta.size)
		dst = wire.AppendBytes(dst, a.meta.smallest)
		dst = wire.AppendBytes(dst, a.meta.largest)
	}
	for _, d := range e.deleted {
		dst = wire.AppendUvarint(dst, tagDeleteTable)
		dst = wire.AppendUvarint(dst, uint64(d.level))
		dst = wire.AppendUvarint(dst, d.fileNum)
	}
	return dst
}

func decodeVersionEdit(b []byte) (*versionEdit, error) {
	e := &versionEdit{}
	r := wire.NewReader(b)
	// No count to bound: each record appended below was read from the frame.
	for r.Len() > 0 {
		var level uint64
		switch tag := r.Uvarint(); tag {
		case tagLogNumber:
			e.logNumber = r.Uvarint()
		case tagNextFileNum:
			e.nextFileNum = r.Uvarint()
		case tagLastSeq:
			e.lastSeq = r.Uvarint()
		case tagAddTable:
			level = r.Uvarint()
			e.added = append(e.added, editAdd{level: int(level), meta: &tableMeta{
				fileNum: r.Uvarint(), size: r.Uvarint(),
				smallest: internalKey(r.BytesCopy()), largest: internalKey(r.BytesCopy()),
			}})
		case tagDeleteTable:
			level = r.Uvarint()
			e.deleted = append(e.deleted, editDelete{level: int(level), fileNum: r.Uvarint()})
		default:
			if r.Err() == nil {
				return nil, fmt.Errorf("%w: unknown edit tag %d", ErrCorrupt, tag)
			}
		}
		if level >= numLevels {
			return nil, fmt.Errorf("%w: edit level %d", ErrCorrupt, level)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: edit: %v", ErrCorrupt, err)
	}
	return e, nil
}

// apply builds a new version from v plus the edit.
func (e *versionEdit) apply(v *version) *version {
	nv := v.clone()
	for _, d := range e.deleted {
		tables := nv.levels[d.level]
		for i, t := range tables {
			if t.fileNum == d.fileNum {
				nv.levels[d.level] = append(tables[:i:i], tables[i+1:]...)
				break
			}
		}
	}
	for _, a := range e.added {
		nv.levels[a.level] = append(nv.levels[a.level], a.meta)
	}
	// Restore level invariants: L0 newest-first by file number, deeper
	// levels sorted by smallest key.
	sort.Slice(nv.levels[0], func(i, j int) bool {
		return nv.levels[0][i].fileNum > nv.levels[0][j].fileNum
	})
	for l := 1; l < numLevels; l++ {
		lvl := nv.levels[l]
		sort.Slice(lvl, func(i, j int) bool {
			return compareInternal(lvl[i].smallest, lvl[j].smallest) < 0
		})
	}
	return nv
}

// File-name helpers.

func walPath(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.log", num))
}

func tablePath(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.sst", num))
}

func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST") }
func currentPath(dir string) string  { return filepath.Join(dir, "CURRENT") }

// manifest persists versionEdits as checksummed frames. The DB rewrites it
// from scratch on every open (a full snapshot edit), then appends.
type manifest struct {
	mu sync.Mutex
	f  *os.File
}

func createManifest(dir string, snapshot *versionEdit) (*manifest, error) {
	tmp := manifestPath(dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create manifest: %w", err)
	}
	payload := snapshot.encode(nil)
	if _, err := f.Write(wire.AppendFrame(nil, payload)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, manifestPath(dir)); err != nil {
		return nil, err
	}
	// Point CURRENT at the manifest (atomic via rename).
	curTmp := currentPath(dir) + ".tmp"
	if err := os.WriteFile(curTmp, []byte("MANIFEST\n"), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(curTmp, currentPath(dir)); err != nil {
		return nil, err
	}
	af, err := os.OpenFile(manifestPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &manifest{f: af}, nil
}

// append durably logs one edit.
func (m *manifest) append(e *versionEdit) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	payload := e.encode(nil)
	if _, err := m.f.Write(wire.AppendFrame(nil, payload)); err != nil {
		return fmt.Errorf("store: manifest append: %w", err)
	}
	return m.f.Sync()
}

func (m *manifest) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.f.Close()
}

// loadManifest replays the manifest, returning the reconstructed version
// and bookkeeping numbers.
func loadManifest(dir string) (v *version, logNum, nextFileNum, lastSeq uint64, err error) {
	v = &version{}
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return v, 0, 1, 0, nil
		}
		return nil, 0, 0, 0, err
	}
	nextFileNum = 1
	r := wire.NewReader(data)
	for r.Len() > 0 {
		payload := r.Frame()
		if r.Err() != nil {
			// Torn tail from a crash during append: stop replay.
			break
		}
		edit, err := decodeVersionEdit(payload)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		v = edit.apply(v)
		if edit.logNumber != 0 {
			logNum = edit.logNumber
		}
		if edit.nextFileNum != 0 {
			nextFileNum = edit.nextFileNum
		}
		if edit.lastSeq > lastSeq {
			lastSeq = edit.lastSeq
		}
	}
	return v, logNum, nextFileNum, lastSeq, nil
}

// snapshotEdit flattens a version into a single edit for manifest rewrite.
func snapshotEdit(v *version, logNum, nextFileNum, lastSeq uint64) *versionEdit {
	e := &versionEdit{logNumber: logNum, nextFileNum: nextFileNum, lastSeq: lastSeq}
	for level := 0; level < numLevels; level++ {
		for _, t := range v.levels[level] {
			e.added = append(e.added, editAdd{level: level, meta: t})
		}
	}
	return e
}
