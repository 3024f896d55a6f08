package recovery

import (
	"fmt"

	"lambdastore/internal/wire"
)

// RPC method names of the state-transfer protocol. The first seven are
// served by the sender of state and called by its receiver; forward goes
// the other way. Every request names its session as (peer, scope).
const (
	MethodBegin   = "recovery.begin"
	MethodDigest  = "recovery.digest"
	MethodObjects = "recovery.objects"
	MethodFetch   = "recovery.fetch"
	MethodPromote = "recovery.promote"
	MethodAdmit   = "recovery.admit"
	MethodEnd     = "recovery.end"
	MethodForward = "recovery.forward"
)

// maxCount bounds any element count a peer may name.
const maxCount = 1 << 16

// reader decodes a frame field by field; the first failure sticks, so a
// decoder reads every field and checks err once.
type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() (v uint64) {
	if r.err == nil {
		v, r.b, r.err = wire.Uvarint(r.b)
	}
	return v
}

func (r *reader) uint64() (v uint64) {
	if r.err == nil {
		v, r.b, r.err = wire.Uint64(r.b)
	}
	return v
}

func (r *reader) bytes() (v []byte) {
	if r.err == nil {
		v, r.b, r.err = wire.Bytes(r.b)
	}
	return v
}

func (r *reader) bytesSlice() (v [][]byte) {
	if r.err == nil {
		v, r.b, r.err = wire.BytesSlice(r.b)
	}
	return v
}

func (r *reader) flag() bool { return r.uvarint() != 0 }

// count reads an element count. It comes from the peer, so it must fit the
// bytes that follow — elemSize at least per element — before anything is
// allocated for it.
func (r *reader) count(elemSize uint64) uint64 {
	n := r.uvarint()
	if r.err == nil && (n > maxCount || n*elemSize > uint64(len(r.b))) {
		r.err = fmt.Errorf("recovery: count %d out of range", n)
	}
	if r.err != nil {
		return 0
	}
	return n
}

func appendFlag(b []byte, f bool) []byte {
	if f {
		return wire.AppendUvarint(b, 1)
	}
	return wire.AppendUvarint(b, 0)
}

// scope is the key range a session transfers: the whole replica (the zero
// value, a rejoin) or one object's range (a live move).
type scope struct {
	scoped bool
	object uint64
}

func objectScope(id uint64) scope { return scope{scoped: true, object: id} }

func (s scope) String() string {
	if !s.scoped {
		return "replica"
	}
	return fmt.Sprintf("object:%d", s.object)
}

// sessionReq names the session on every sender-side call: the receiver's
// address, its scope, and — whole-replica sessions only — the directory
// epoch the session is pinned to. The sender rejects a replica-scoped
// request whose epoch differs from its own view, so a joiner working from a
// stale view (or talking to a deposed primary) restarts its session instead
// of syncing against the wrong replica.
type sessionReq struct {
	peer  string
	epoch uint64
	scope scope
}

func (q *sessionReq) key() sessionKey { return sessionKey{peer: q.peer, scope: q.scope} }

func encodeSessionReq(q *sessionReq) []byte {
	b := wire.AppendString(nil, q.peer)
	b = wire.AppendUvarint(b, q.epoch)
	b = appendFlag(b, q.scope.scoped)
	if q.scope.scoped {
		b = wire.AppendUvarint(b, q.scope.object)
	}
	return b
}

// session reads the prefix every sender-side request starts with.
func (r *reader) session() (q sessionReq) {
	q.peer = string(r.bytes())
	q.epoch = r.uvarint()
	if r.flag() {
		q.scope = objectScope(r.uvarint())
	}
	return q
}

func decodeSessionReq(body []byte) (*sessionReq, error) {
	r := reader{b: body}
	q := r.session()
	return &q, r.err
}

// digestResp carries the sender's bucket folds and meta digest.
type digestResp struct {
	buckets []uint64
	meta    uint64
}

func encodeDigestResp(d *digestResp) []byte {
	b := wire.AppendUvarint(nil, uint64(len(d.buckets)))
	for _, h := range d.buckets {
		b = wire.AppendUint64(b, h)
	}
	return wire.AppendUint64(b, d.meta)
}

func decodeDigestResp(body []byte) (*digestResp, error) {
	r := reader{b: body}
	d := &digestResp{buckets: make([]uint64, r.count(8))}
	for i := range d.buckets {
		d.buckets[i] = r.uint64()
	}
	d.meta = r.uint64()
	return d, r.err
}

// objectsReq drills into the named buckets.
type objectsReq struct {
	sessionReq
	buckets []uint64
}

func encodeObjectsReq(q *objectsReq) []byte {
	b := encodeSessionReq(&q.sessionReq)
	b = wire.AppendUvarint(b, uint64(len(q.buckets)))
	for _, i := range q.buckets {
		b = wire.AppendUvarint(b, i)
	}
	return b
}

func decodeObjectsReq(body []byte) (*objectsReq, error) {
	r := reader{b: body}
	q := &objectsReq{sessionReq: r.session()}
	q.buckets = make([]uint64, r.count(1))
	for i := range q.buckets {
		q.buckets[i] = r.uvarint()
	}
	return q, r.err
}

// objectsResp is the per-object digest listing for the drilled buckets.
type objectsResp struct {
	ids     []uint64
	digests []uint64
}

func encodeObjectsResp(o *objectsResp) []byte {
	b := wire.AppendUvarint(nil, uint64(len(o.ids)))
	for i := range o.ids {
		b = wire.AppendUvarint(b, o.ids[i])
		b = wire.AppendUint64(b, o.digests[i])
	}
	return b
}

func decodeObjectsResp(body []byte) (*objectsResp, error) {
	r := reader{b: body}
	o := &objectsResp{}
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		o.ids = append(o.ids, r.uvarint())
		o.digests = append(o.digests, r.uint64())
	}
	return o, r.err
}

// fetchReq asks for one bounded chunk of [start, end); an empty bound is
// open.
type fetchReq struct {
	sessionReq
	start []byte
	end   []byte
}

func encodeFetchReq(q *fetchReq) []byte {
	b := encodeSessionReq(&q.sessionReq)
	b = wire.AppendBytes(b, q.start)
	return wire.AppendBytes(b, q.end)
}

func decodeFetchReq(body []byte) (*fetchReq, error) {
	r := reader{b: body}
	q := &fetchReq{sessionReq: r.session(), start: r.bytes(), end: r.bytes()}
	return q, r.err
}

// fetchResp carries one chunk plus a continuation key (empty = range done).
type fetchResp struct {
	keys   [][]byte
	values [][]byte
	next   []byte
}

func encodeFetchResp(f *fetchResp) []byte {
	b := wire.AppendBytesSlice(nil, f.keys)
	b = wire.AppendBytesSlice(b, f.values)
	return wire.AppendBytes(b, f.next)
}

func decodeFetchResp(body []byte) (*fetchResp, error) {
	r := reader{b: body}
	f := &fetchResp{keys: r.bytesSlice(), values: r.bytesSlice(), next: r.bytes()}
	if r.err == nil && len(f.keys) != len(f.values) {
		r.err = fmt.Errorf("recovery: fetch chunk %d keys / %d values", len(f.keys), len(f.values))
	}
	return f, r.err
}

// forwardMsg is one committed write-set relayed to a session's receiver.
// scoped names the receiving session: the inbound move of object, or the
// whole-replica rejoin.
type forwardMsg struct {
	scoped bool
	object uint64
	batch  []byte
}

func (m *forwardMsg) scope() scope {
	if m.scoped {
		return objectScope(m.object)
	}
	return scope{}
}

func encodeForward(m *forwardMsg) []byte {
	b := appendFlag(nil, m.scoped)
	b = wire.AppendUvarint(b, m.object)
	return wire.AppendBytes(b, m.batch)
}

func decodeForward(body []byte) (*forwardMsg, error) {
	r := reader{b: body}
	m := &forwardMsg{scoped: r.flag(), object: r.uvarint(), batch: r.bytes()}
	return m, r.err
}
