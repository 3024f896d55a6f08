package store

import (
	"sync"

	"lambdastore/internal/wire"
)

// Group is one write group as it leaves the node: the records its leader
// logged, back to back, and which of them are members — batches marked by
// Batch.Replicate, in log order. The DB hands every durable group that has
// members to Options.OnGroup; Shipper.Ship builds a group of its own with
// Add. A group is not safe for concurrent use.
type Group struct {
	db      *DB
	buf     []byte      // the group's records; framed as the WAL logs them in a DB's group
	writers []*dbWriter // the writers the group completes
	members []member
	queued  bool // the group still holds the DB's writer queue
}

// member is one replicated batch of a group and its record in buf: the
// payload of its frame.
type member struct {
	b          *Batch
	object     uint64
	w          *dbWriter // nil in a group Add built
	start, end int
}

// HookError is what Write returns for a batch whose group hook withheld its
// ack (Group.Fail): the batch is durable and applied here, and Err says why
// it may not be acknowledged yet.
type HookError struct{ Err error }

func (e *HookError) Error() string { return e.Err.Error() }

// Len returns the number of members.
func (g *Group) Len() int { return len(g.members) }

// Batch returns member i.
func (g *Group) Batch(i int) *Batch { return g.members[i].b }

// Object returns the object member i is a write-set of.
func (g *Group) Object(i int) uint64 { return g.members[i].object }

// Record returns member i's record as the WAL logged it. It aliases the
// group, which the DB recycles once its hook returns.
func (g *Group) Record(i int) []byte {
	m := g.members[i]
	return g.buf[m.start:m.end]
}

// Fail withholds member i's ack: its Write returns a *HookError of err (the
// first failure of a writer's batches wins).
func (g *Group) Fail(i int, err error) {
	if w := g.members[i].w; w != nil && w.err == nil {
		w.err = &HookError{err}
	}
}

// Release gives up the writer queue: the next group forms and logs while
// this one's hook carries on, and its members still wait for the hook to
// return. Idempotent; the DB releases a group whose hook did not.
func (g *Group) Release() {
	if !g.queued {
		return
	}
	g.queued = false
	g.db.mu.Lock()
	g.db.dequeue(len(g.writers))
	g.db.mu.Unlock()
}

// Add appends b to a group no DB owns as a member, a write-set of object.
// Such a group is shipped, never logged, so its record is not framed.
func (g *Group) Add(object uint64, b *Batch) {
	start := len(g.buf)
	g.buf = b.AppendTo(g.buf)
	g.members = append(g.members, member{b: b, object: object, start: start, end: len(g.buf)})
}

// log appends w's batch b framed as the WAL logs it, so that buf is what
// the WAL writes, and b as a member if it is marked.
func (g *Group) log(b *Batch, w *dbWriter) {
	g.buf = wire.BeginFrame(g.buf, b.encodedLen())
	start := len(g.buf)
	g.buf = b.AppendTo(g.buf)
	end := len(g.buf)
	g.buf = wire.EndFrame(g.buf, start)
	if b.replicated {
		g.members = append(g.members, member{b: b, object: b.object, w: w, start: start, end: end})
	}
}

// Reset empties the group for reuse, dropping its references to batches and
// writers.
func (g *Group) Reset() {
	clear(g.writers)
	clear(g.members)
	buf := g.buf[:0]
	if cap(buf) > maxPooledGroupBytes {
		buf = nil
	}
	*g = Group{buf: buf, writers: g.writers[:0], members: g.members[:0]}
}

// maxPooledGroupBytes is the largest record buffer a recycled group keeps.
const maxPooledGroupBytes = 64 << 10

// groupPool recycles the DB's write groups.
var groupPool = sync.Pool{New: func() any { return new(Group) }}
