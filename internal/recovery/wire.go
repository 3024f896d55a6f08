package recovery

import (
	"fmt"

	"lambdastore/internal/wire"
)

// RPC method names. Every donor-side method is epoch-stamped: the donor
// rejects a request whose epoch differs from its own configuration
// view, so a joiner working from a stale view (or talking to a deposed
// primary) restarts its session instead of syncing against the wrong
// replica.
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

// sessionReq identifies the joiner on every session-scoped call.
type sessionReq struct {
	joiner string
	epoch  uint64
}

func encodeSessionReq(joiner string, epoch uint64) []byte {
	b := wire.AppendString(nil, joiner)
	return wire.AppendUvarint(b, epoch)
}

func decodeSessionReq(body []byte) (*sessionReq, error) {
	r := &sessionReq{}
	var err error
	if r.joiner, body, err = wire.String(body); err != nil {
		return nil, err
	}
	if r.epoch, _, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	return r, nil
}

// digestReq asks for the donor's bucket folds at the given fan-out.
type digestReq struct {
	sessionReq
	buckets uint64
}

func encodeDigestReq(joiner string, epoch, buckets uint64) []byte {
	b := encodeSessionReq(joiner, epoch)
	return wire.AppendUvarint(b, buckets)
}

func decodeDigestReq(body []byte) (*digestReq, error) {
	r := &digestReq{}
	var err error
	if r.joiner, body, err = wire.String(body); err != nil {
		return nil, err
	}
	if r.epoch, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	if r.buckets, _, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	if r.buckets == 0 || r.buckets > 1<<16 {
		return nil, fmt.Errorf("recovery: bucket count %d out of range", r.buckets)
	}
	return r, nil
}

// digestResp carries the donor's bucket folds and meta digest.
type digestResp struct {
	buckets []uint64
	meta    uint64
}

func encodeDigestResp(r *digestResp) []byte {
	b := wire.AppendUvarint(nil, uint64(len(r.buckets)))
	for _, h := range r.buckets {
		b = wire.AppendUint64(b, h)
	}
	return wire.AppendUint64(b, r.meta)
}

func decodeDigestResp(body []byte) (*digestResp, error) {
	r := &digestResp{}
	n, body, err := wire.Uvarint(body)
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("recovery: bucket count %d out of range", n)
	}
	r.buckets = make([]uint64, n)
	for i := range r.buckets {
		if r.buckets[i], body, err = wire.Uint64(body); err != nil {
			return nil, err
		}
	}
	if r.meta, _, err = wire.Uint64(body); err != nil {
		return nil, err
	}
	return r, nil
}

// objectsReq drills into the named buckets.
type objectsReq struct {
	sessionReq
	buckets []uint64
}

func encodeObjectsReq(joiner string, epoch uint64, buckets []uint64) []byte {
	b := encodeSessionReq(joiner, epoch)
	b = wire.AppendUvarint(b, uint64(len(buckets)))
	for _, i := range buckets {
		b = wire.AppendUvarint(b, i)
	}
	return b
}

func decodeObjectsReq(body []byte) (*objectsReq, error) {
	r := &objectsReq{}
	var err error
	if r.joiner, body, err = wire.String(body); err != nil {
		return nil, err
	}
	if r.epoch, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	var n uint64
	if n, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("recovery: bucket list %d out of range", n)
	}
	r.buckets = make([]uint64, n)
	for i := range r.buckets {
		if r.buckets[i], body, err = wire.Uvarint(body); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// objectsResp is the per-object digest listing for the drilled buckets.
type objectsResp struct {
	ids     []uint64
	digests []uint64
}

func encodeObjectsResp(r *objectsResp) []byte {
	b := wire.AppendUvarint(nil, uint64(len(r.ids)))
	for i := range r.ids {
		b = wire.AppendUvarint(b, r.ids[i])
		b = wire.AppendUint64(b, r.digests[i])
	}
	return b
}

func decodeObjectsResp(body []byte) (*objectsResp, error) {
	r := &objectsResp{}
	n, body, err := wire.Uvarint(body)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var id, dig uint64
		if id, body, err = wire.Uvarint(body); err != nil {
			return nil, err
		}
		if dig, body, err = wire.Uint64(body); err != nil {
			return nil, err
		}
		r.ids = append(r.ids, id)
		r.digests = append(r.digests, dig)
	}
	return r, nil
}

// fetchReq asks for one bounded chunk of [start, end), limit entries.
type fetchReq struct {
	sessionReq
	start []byte
	end   []byte
	limit uint64
}

func encodeFetchReq(r *fetchReq) []byte {
	b := encodeSessionReq(r.joiner, r.epoch)
	b = wire.AppendBytes(b, r.start)
	b = wire.AppendBytes(b, r.end)
	return wire.AppendUvarint(b, r.limit)
}

func decodeFetchReq(body []byte) (*fetchReq, error) {
	r := &fetchReq{}
	var err error
	if r.joiner, body, err = wire.String(body); err != nil {
		return nil, err
	}
	if r.epoch, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	if r.start, body, err = wire.Bytes(body); err != nil {
		return nil, err
	}
	if r.end, body, err = wire.Bytes(body); err != nil {
		return nil, err
	}
	if r.limit, _, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	return r, nil
}

// fetchResp carries one chunk plus a continuation key (nil = range done).
type fetchResp struct {
	keys   [][]byte
	values [][]byte
	next   []byte
}

func encodeFetchResp(r *fetchResp) []byte {
	b := wire.AppendBytesSlice(nil, r.keys)
	b = wire.AppendBytesSlice(b, r.values)
	return wire.AppendBytes(b, r.next)
}

func decodeFetchResp(body []byte) (*fetchResp, error) {
	r := &fetchResp{}
	var err error
	if r.keys, body, err = wire.BytesSlice(body); err != nil {
		return nil, err
	}
	if r.values, body, err = wire.BytesSlice(body); err != nil {
		return nil, err
	}
	if r.next, _, err = wire.Bytes(body); err != nil {
		return nil, err
	}
	if len(r.keys) != len(r.values) {
		return nil, fmt.Errorf("recovery: fetch chunk %d keys / %d values", len(r.keys), len(r.values))
	}
	return r, nil
}

// promoteResp reports how many forwards the async phase lost: zero
// means every post-snapshot commit reached the joiner, so a clean
// digest round certifies convergence.
type promoteResp struct {
	gaps uint64
}

func encodePromoteResp(r *promoteResp) []byte {
	return wire.AppendUvarint(nil, r.gaps)
}

// forwardMsg is one committed write-set relayed to a syncing joiner.
type forwardMsg struct {
	object uint64
	batch  []byte
}

func encodeForward(object uint64, batch []byte) []byte {
	b := wire.AppendUvarint(nil, object)
	return wire.AppendBytes(b, batch)
}

func decodeForward(body []byte) (*forwardMsg, error) {
	m := &forwardMsg{}
	var err error
	if m.object, body, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	if m.batch, _, err = wire.Bytes(body); err != nil {
		return nil, err
	}
	return m, nil
}
