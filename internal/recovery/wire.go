package recovery

import (
	"fmt"

	"lambdastore/internal/replication"
	"lambdastore/internal/store"
	"lambdastore/internal/wire"
)

// RPC method names of the state-transfer protocol. The first four are
// served by the sender of state and called by its receiver; forward, the
// relay of a write group, goes the other way. Every request names its
// session as (peer, scope).
const (
	MethodBegin   = "recovery.begin"
	MethodDigest  = "recovery.digest"
	MethodFetch   = "recovery.fetch"
	MethodAdmit   = "recovery.admit"
	MethodForward = "recovery.forward"
)

// scope is the key range a session transfers: the whole replica (the zero
// value, a rejoin) or one object's range (a live move).
type scope struct {
	scoped bool
	object uint64
}

func objectScope(id uint64) scope { return scope{scoped: true, object: id} }

// covers reports whether object's writes are in the scope.
func (s scope) covers(object uint64) bool { return !s.scoped || s.object == object }

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

// readSession reads the prefix every session request and relay starts with.
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

// digestReq carries the joiner's bucket folds and meta digest: the sender
// diffs them against its own scan and answers in the same round trip.
type digestReq struct {
	sessionReq
	buckets []uint64
	meta    uint64
}

func encodeDigestReq(q *digestReq) []byte {
	b := encodeSessionReq(&q.sessionReq)
	b = wire.AppendUvarint(b, uint64(len(q.buckets)))
	for _, h := range q.buckets {
		b = wire.AppendUint64(b, h)
	}
	return wire.AppendUint64(b, q.meta)
}

func decodeDigestReq(body []byte) (*digestReq, error) {
	r := wire.NewReader(body)
	q := &digestReq{sessionReq: readSession(&r)}
	q.buckets = make([]uint64, r.Count(8))
	for i := range q.buckets {
		q.buckets[i] = r.Uint64()
	}
	q.meta = r.Uint64()
	return q, r.ErrIn("recovery: digest request")
}

// digestResp carries the sender's meta digest, the buckets whose folds
// differ from the joiner's, and the (id, digest) of every object the
// sender holds in those buckets.
type digestResp struct {
	meta    uint64
	buckets []uint64
	ids     []uint64
	digests []uint64
}

func encodeDigestResp(d *digestResp) []byte {
	b := wire.AppendUint64(nil, d.meta)
	b = wire.AppendUvarint(b, uint64(len(d.buckets)))
	for _, i := range d.buckets {
		b = wire.AppendUvarint(b, i)
	}
	b = wire.AppendUvarint(b, uint64(len(d.ids)))
	for i := range d.ids {
		b = wire.AppendUvarint(b, d.ids[i])
		b = wire.AppendUint64(b, d.digests[i])
	}
	return b
}

func decodeDigestResp(body []byte) (*digestResp, error) {
	r := wire.NewReader(body)
	d := &digestResp{meta: r.Uint64()}
	d.buckets = make([]uint64, r.Count(1))
	for i := range d.buckets {
		d.buckets[i] = r.Uvarint()
	}
	n := r.Count(9)
	d.ids, d.digests = make([]uint64, n), make([]uint64, n)
	for i := range d.ids {
		d.ids[i], d.digests[i] = r.Uvarint(), r.Uint64()
	}
	return d, r.ErrIn("recovery: digest response")
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

// encodeRelay names the receiving session, then appends the applyBatch
// frame of the members of g it covers.
func encodeRelay(q *sessionReq, g *store.Group) []byte {
	return replication.AppendFrame(encodeSessionReq(q), g, q.scope.covers)
}

// splitRelay reads a relay's session and returns the frame after it.
func splitRelay(body []byte) (sessionReq, []byte, error) {
	r := wire.NewReader(body)
	q := readSession(&r)
	return q, r.Rest(), r.ErrIn("recovery: relay")
}
