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
	b = wire.AppendFlag(b, q.scope.scoped)
	if q.scope.scoped {
		b = wire.AppendUvarint(b, q.scope.object)
	}
	return b
}

// readSession reads the prefix every sender-side request starts with.
func readSession(r *wire.Reader) (q sessionReq) {
	q.peer, q.epoch = r.Str(), r.Uvarint()
	if r.Flag() {
		q.scope = objectScope(r.Uvarint())
	}
	return q
}

func decodeSessionReq(body []byte) (*sessionReq, error) {
	r := wire.NewReader(body)
	q := readSession(&r)
	return &q, r.ErrIn("recovery: session request")
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
	r := wire.NewReader(body)
	d := &digestResp{buckets: make([]uint64, r.Count(8))}
	for i := range d.buckets {
		d.buckets[i] = r.Uint64()
	}
	d.meta = r.Uint64()
	return d, r.ErrIn("recovery: digest response")
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
	r := wire.NewReader(body)
	q := &objectsReq{sessionReq: readSession(&r)}
	q.buckets = make([]uint64, r.Count(1))
	for i := range q.buckets {
		q.buckets[i] = r.Uvarint()
	}
	return q, r.ErrIn("recovery: objects request")
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
	r := wire.NewReader(body)
	n := r.Count(9)
	o := &objectsResp{ids: make([]uint64, n), digests: make([]uint64, n)}
	for i := range o.ids {
		o.ids[i], o.digests[i] = r.Uvarint(), r.Uint64()
	}
	return o, r.ErrIn("recovery: objects response")
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
	r := wire.NewReader(body)
	q := &fetchReq{sessionReq: readSession(&r), start: r.Bytes(), end: r.Bytes()}
	return q, r.ErrIn("recovery: fetch request")
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
	r := wire.NewReader(body)
	f := &fetchResp{keys: r.BytesSlice(), values: r.BytesSlice(), next: r.Bytes()}
	if err := r.ErrIn("recovery: fetch response"); err != nil {
		return nil, err
	}
	if len(f.keys) != len(f.values) {
		return nil, fmt.Errorf("recovery: fetch chunk %d keys / %d values", len(f.keys), len(f.values))
	}
	return f, nil
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
	b := wire.AppendFlag(nil, m.scoped)
	b = wire.AppendUvarint(b, m.object)
	return wire.AppendBytes(b, m.batch)
}

func decodeForward(body []byte) (*forwardMsg, error) {
	r := wire.NewReader(body)
	m := &forwardMsg{scoped: r.Flag(), object: r.Uvarint(), batch: r.Bytes()}
	return m, r.ErrIn("recovery: forward")
}
