package core

import "sync"

// hotTracker is a bounded Space-Saving (Metwally et al.) top-k counter
// over per-object invocation counts — the load signal behind hot-object
// rebalancing. Unlike the unbounded map it replaces, memory is fixed at
// hotTrackerEntries no matter how many distinct objects a node serves:
// when a new object arrives at a full tracker it inherits the smallest
// tracked count plus one (the classic over-estimate bound), evicting
// that entry. Objects hot enough to matter for placement are never the
// minimum for long, so the ranking the rebalancer samples is exact for
// the heavy hitters it acts on.
//
// The tracker is a binary min-heap on count with a map from object to
// heap slot, so touch is O(log hotTrackerEntries) worst case and O(1) for the
// common already-tracked increment that stays in place. Its own mutex
// serializes access: every invocation touches it, so it shares a lock with
// nothing else.
type hotTracker struct {
	mu      sync.Mutex
	entries []hotEntry
	index   map[ObjectID]int // object -> slot in entries
}

type hotEntry struct {
	id    ObjectID
	count uint64
}

// hotTrackerEntries bounds the per-node hot-object table. 1024 tracked
// objects is far beyond what any rebalancing policy inspects (it samples
// the top few dozen) while costing ~32KiB per node.
const hotTrackerEntries = 1024

func newHotTracker() *hotTracker {
	return &hotTracker{
		entries: make([]hotEntry, 0, hotTrackerEntries),
		index:   make(map[ObjectID]int, hotTrackerEntries),
	}
}

// touch counts one invocation of id.
func (t *hotTracker) touch(id ObjectID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.index[id]; ok {
		t.entries[i].count++
		t.siftDown(i)
		return
	}
	if len(t.entries) < hotTrackerEntries {
		t.entries = append(t.entries, hotEntry{id: id, count: 1})
		i := len(t.entries) - 1
		t.index[id] = i
		t.siftUp(i)
		return
	}
	// Full: replace the minimum, inheriting its count (Space-Saving's
	// over-estimate keeps genuinely hot keys from being starved out by
	// a long tail of one-hit objects).
	min := &t.entries[0]
	delete(t.index, min.id)
	min.id = id
	min.count++
	t.index[id] = 0
	t.siftDown(0)
}

// window returns up to n entries ordered hottest first and starts a new
// observation window, atomically with respect to touch.
func (t *hotTracker) window(n int) []HotObject {
	t.mu.Lock()
	out := make([]HotObject, len(t.entries))
	for i, e := range t.entries {
		out[i] = HotObject{ID: e.id, Count: e.count}
	}
	t.entries = t.entries[:0]
	clear(t.index)
	t.mu.Unlock()
	sortHot(out)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

func (t *hotTracker) less(i, j int) bool {
	if t.entries[i].count != t.entries[j].count {
		return t.entries[i].count < t.entries[j].count
	}
	// Deterministic tie-break so evictions replay identically.
	return t.entries[i].id > t.entries[j].id
}

func (t *hotTracker) swap(i, j int) {
	t.entries[i], t.entries[j] = t.entries[j], t.entries[i]
	t.index[t.entries[i].id] = i
	t.index[t.entries[j].id] = j
}

func (t *hotTracker) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(i, parent) {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *hotTracker) siftDown(i int) {
	n := len(t.entries)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && t.less(l, small) {
			small = l
		}
		if r < n && t.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		t.swap(i, small)
		i = small
	}
}
