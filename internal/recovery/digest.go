// Package recovery is LambdaStore's state-transfer subsystem: it copies a
// key range to another node while commits keep arriving, then cuts over.
// One protocol (DESIGN.md "State transfer") serves both reasons state moves
// — a restarted replica rejoining its group (scope: the whole replica, §11)
// and a live object migration (scope: one object's range, §13). The
// receiver of state always pulls and the sender always relays: the receiver
// opens a session, applies the commits the sender relays as they arrive,
// and pulls the range in chunks served off storage snapshots. A digest
// round — one exchange: the receiver's bucket folds out, the sender's
// listing of the buckets that differ back — decides what a rejoin re-pulls,
// so the bytes it streams scale with the replicas' divergence, not the
// store size, and one round certifies it. A move compares no digests: its
// source seals it on its own record of the relays it sent, and on one empty
// relay the target answers only while it still holds its session.
// Only the orchestrator differs: the joiner drives a rejoin (rejoin.go), the
// source primary — the only node that can quiesce the object — a move
// (move.go).
package recovery

import (
	"encoding/binary"
	"slices"

	"lambdastore/internal/store"
)

// DefaultBuckets is the bucket-hash fan-out of a digest exchange, the only
// count a sender accepts: small enough that the receiver's folds are half a
// kilobyte, large enough that a single divergent object costs a listing of
// ~1/64th of the ids.
const DefaultBuckets = 64

const (
	// objectKeyPrefix mirrors core's key layout ('o' + big-endian id +
	// suffix). recovery reads raw store keys, so it needs the prefix but
	// not the per-field suffix structure.
	objectKeyPrefix = 'o'
	fnvOffset       = 0xcbf29ce484222325
	fnvPrime        = 0x100000001b3
)

// DigestTable is one replica's committed-state summary: a digest per
// object range, the bucket folds a digest request carries, and a digest of
// the meta range (type records — every key below the object keyspace).
type DigestTable struct {
	Buckets []uint64
	Objects map[uint64]uint64
	Meta    uint64
}

// hashEntry folds one (key, value) pair into h, FNV-1a style with
// length separators so (k="ab", v="c") never collides with (k="a",
// v="bc").
func hashEntry(h uint64, key, value []byte) uint64 {
	h = (h ^ uint64(len(key))) * fnvPrime
	for _, c := range key {
		h = (h ^ uint64(c)) * fnvPrime
	}
	h = (h ^ uint64(len(value))) * fnvPrime
	for _, c := range value {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// mix64 is a splitmix64 finalizer: it decorrelates the (id, digest)
// pairs before they are XOR-folded into a bucket, so two objects with
// related digests cannot cancel each other out.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bucketOf places an object id into a bucket.
func bucketOf(id uint64, buckets int) int { return int(id % uint64(buckets)) }

// foldObject is the contribution of one (id, digest) pair to its
// bucket hash. XOR-folding makes the bucket hash order-independent, so
// donor and joiner need not enumerate objects in the same order.
func foldObject(id, digest uint64) uint64 { return mix64(id*fnvPrime ^ digest) }

// scanRange calls fn for every committed entry of [start, end) in key order
// off one consistent snapshot, until fn returns false; an empty bound is
// open. The slices are only valid during the call. It is the package's one
// range reader: digests, chunk serving and stale-key listing all go through
// it.
func scanRange(db *store.DB, start, end []byte, fn func(key, value []byte) bool) error {
	snap := db.GetSnapshot()
	defer snap.Release()
	it, err := snap.NewIterator()
	if err != nil {
		return err
	}
	defer it.Close()
	if len(start) == 0 {
		it.SeekToFirst()
	} else {
		it.Seek(start)
	}
	for ; it.Valid(); it.Next() {
		k := it.Key()
		if len(end) > 0 && string(k) >= string(end) {
			break
		}
		if !fn(k, it.Value()) {
			break
		}
	}
	return it.Error()
}

// rangeKeys lists the committed keys in [start, end).
func rangeKeys(db *store.DB, start, end []byte) ([][]byte, error) {
	var out [][]byte
	err := scanRange(db, start, end, func(k, _ []byte) bool {
		out = append(out, append([]byte(nil), k...))
		return true
	})
	return out, err
}

// metaRangeEnd is the exclusive upper bound of the meta key range: all
// keys below the object keyspace (type records live there).
func metaRangeEnd() []byte { return []byte{objectKeyPrefix} }

// objectRange returns [start, end) for one object's keys.
func objectRange(id uint64) (start, end []byte) {
	start = make([]byte, 9)
	start[0] = objectKeyPrefix
	binary.BigEndian.PutUint64(start[1:], id)
	end = make([]byte, 9)
	copy(end, start)
	for i := len(end) - 1; i > 0; i-- {
		end[i]++
		if end[i] != 0 {
			return start, end
		}
	}
	// id == MaxUint64: the range runs to the end of the object keyspace.
	return start, []byte{objectKeyPrefix + 1}
}

// BuildDigest scans a consistent snapshot of db and summarizes its
// committed latest state: a chained hash per object key range (the scan
// is key-ordered, so chaining is deterministic), the bucket folds, and
// the meta-range digest. Cost is one sequential iteration — the same
// work a full resync would pay per byte, paid once to avoid shipping
// the bytes.
func BuildDigest(db *store.DB, buckets int) (*DigestTable, error) {
	t := &DigestTable{
		Buckets: make([]uint64, buckets),
		Objects: make(map[uint64]uint64),
	}
	var (
		curID     uint64
		curHash   uint64 = fnvOffset
		inObject  bool
		metaHash  uint64 = fnvOffset
		metaSeen  bool
		flushCurr = func() {
			if inObject {
				t.Objects[curID] = curHash
				t.Buckets[bucketOf(curID, buckets)] ^= foldObject(curID, curHash)
			}
			inObject = false
			curHash = fnvOffset
		}
	)
	err := scanRange(db, nil, nil, func(k, v []byte) bool {
		if len(k) >= 9 && k[0] == objectKeyPrefix {
			id := binary.BigEndian.Uint64(k[1:9])
			if !inObject || id != curID {
				flushCurr()
				curID = id
				inObject = true
			}
			curHash = hashEntry(curHash, k, v)
		} else if k[0] < objectKeyPrefix {
			metaHash = hashEntry(metaHash, k, v)
			metaSeen = true
		}
		return true
	})
	flushCurr()
	if err != nil {
		return nil, err
	}
	if metaSeen {
		t.Meta = metaHash
	}
	return t, nil
}

// diffDigest is the sender's side of a digest round: one scan of db, its
// bucket folds diffed against the joiner's, and the (id, digest) of every
// object it holds in a bucket that differs.
func diffDigest(db *store.DB, joiner []uint64) (*digestResp, error) {
	t, err := BuildDigest(db, len(joiner))
	if err != nil {
		return nil, err
	}
	resp := &digestResp{meta: t.Meta}
	for i, h := range t.Buckets {
		if h != joiner[i] {
			resp.buckets = append(resp.buckets, uint64(i))
		}
	}
	for id, dig := range t.Objects {
		if b := bucketOf(id, len(joiner)); t.Buckets[b] != joiner[b] {
			resp.ids = append(resp.ids, id)
			resp.digests = append(resp.digests, dig)
		}
	}
	return resp, nil
}

// ObjectDiff lists, in id order, the objects the joiner must re-pull after
// a digest round: within the buckets that differ, every object whose
// digest differs between the two sides or that only one side holds. A
// re-pull of an object the sender no longer holds deletes it.
func ObjectDiff(local *DigestTable, differ, remoteIDs, remoteDigests []uint64) []uint64 {
	remote := make(map[uint64]bool, len(remoteIDs))
	var out []uint64
	for i, id := range remoteIDs {
		remote[id] = true
		if have, ok := local.Objects[id]; !ok || have != remoteDigests[i] {
			out = append(out, id)
		}
	}
	for id := range local.Objects {
		if !remote[id] && slices.Contains(differ, uint64(bucketOf(id, len(local.Buckets)))) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
