// Package recovery is LambdaStore's state-transfer subsystem: it copies a
// key range to another node while commits keep arriving, then cuts over.
// One protocol (DESIGN.md "State transfer") serves both reasons state moves
// — a restarted replica rejoining its group (scope: the whole replica, §11)
// and a live object migration (scope: one object's range, §13). The
// receiver of state always pulls and the sender always relays: the receiver
// opens a session, buffers the commits the sender forwards, pulls the range
// in chunks served off storage snapshots, replays the buffer and goes live;
// range digests decide what to pull and certify the result, so the bytes a
// rejoin streams scale with the replicas' divergence, not the store size.
// Only the orchestrator differs: the joiner drives a rejoin (rejoin.go), the
// source primary — the only node that can quiesce the object — a move
// (move.go).
package recovery

import (
	"encoding/binary"

	"lambdastore/internal/store"
)

// DefaultBuckets is the bucket-hash fan-out of a digest exchange: small
// enough that the first round trip is a few hundred bytes, large enough
// that a single divergent object drills into ~1/64th of the id space.
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
// object range, the bucket folds exchanged first, and a digest of the
// meta range (type records — every key below the object keyspace).
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

// objectDigest chains one object's committed entries in key order — the same
// fold BuildDigest computes per object, so both ends of a move compute
// identical values for identical state.
func objectDigest(db *store.DB, object uint64) (uint64, error) {
	start, end := objectRange(object)
	h := uint64(fnvOffset)
	err := scanRange(db, start, end, func(k, v []byte) bool {
		h = hashEntry(h, k, v)
		return true
	})
	return h, err
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
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
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

// DiffBuckets returns the bucket indexes whose folds differ between the
// two tables (the joiner's drill-down set).
func DiffBuckets(local, remote []uint64) []uint64 {
	n := len(local)
	if len(remote) < n {
		n = len(remote)
	}
	var out []uint64
	for i := 0; i < n; i++ {
		if local[i] != remote[i] {
			out = append(out, uint64(i))
		}
	}
	return out
}

// ObjectDiff compares per-object digests within the drilled-down
// buckets: sync lists objects the joiner must re-fetch (missing here or
// divergent), drop lists objects present locally but absent at the
// donor (deleted during the downtime).
func ObjectDiff(local *DigestTable, remoteIDs, remoteDigests []uint64, bucketSet map[uint64]bool, buckets int) (sync, drop []uint64) {
	remote := make(map[uint64]uint64, len(remoteIDs))
	for i, id := range remoteIDs {
		remote[id] = remoteDigests[i]
	}
	for id, dig := range remote {
		if have, ok := local.Objects[id]; !ok || have != dig {
			sync = append(sync, id)
		}
	}
	for id := range local.Objects {
		if !bucketSet[uint64(bucketOf(id, buckets))] {
			continue
		}
		if _, ok := remote[id]; !ok {
			drop = append(drop, id)
		}
	}
	return sync, drop
}
