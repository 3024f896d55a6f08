package main

import (
	"encoding/binary"
	"math/rand"

	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
)

// seedPosts is how many posts every timeline is seeded with; every read
// asks for at most this many, so every read returns exactly its limit.
const seedPosts = 40

// seedBodyLen and postBodyLen are the message sizes of seeded and
// workload-written posts.
const (
	seedBodyLen = 24
	postBodyLen = 100
)

// workloadSpec is one named traffic mix. The README gives the reasoning
// behind each; `why` is the one-line version BENCHMARK.json carries.
type workloadSpec struct {
	name     string
	accounts int
	// limitLo..limitHi is the uniform range of get_timeline's limit.
	limitLo, limitHi int
	// keyZipf > 1 Zipf-skews which account reads and posts target (rank 0
	// hottest); 0 picks uniformly.
	keyZipf float64
	// postPct and followPct are the shares of create_post and add_follower;
	// the rest is get_timeline.
	postPct, followPct int
	// graph populates the Zipf(1.3) follower lists create_post fans out to.
	graph bool
	// warmOps is the unmeasured warm-up's fixed op count, part of set-up.
	warmOps int
}

var workloads = []workloadSpec{
	{name: "timeline_hot", accounts: 256, limitLo: 40, limitHi: 40, warmOps: 4096},
	{name: "timeline_cold", accounts: 2048, limitLo: 21, limitHi: 40, warmOps: 4096},
	{name: "post_sync", accounts: 256, limitLo: 40, limitHi: 40, postPct: 100, graph: true, warmOps: 256},
	{name: "retwis_mix", accounts: 1024, limitLo: 40, limitHi: 40, keyZipf: 1.1, postPct: 12, followPct: 3, graph: true, warmOps: 1024},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workloadSpec) writes() bool { return w.postPct+w.followPct > 0 }

type opKind uint8

const (
	opRead opKind = iota
	opPost
	opFollow
)

// op is one generated request.
type op struct {
	kind  opKind
	obj   core.ObjectID
	limit int           // opRead
	who   core.ObjectID // opFollow: the new follower
}

func (o op) method() string {
	switch o.kind {
	case opRead:
		return "get_timeline"
	case opPost:
		return "create_post"
	default:
		return "add_follower"
	}
}

// inputs is everything generated from the seed: which object holds which
// popularity rank, who follows whom, and the argument vectors. The program
// under test sees only these.
type inputs struct {
	w    *workloadSpec
	seed int64
	// byRank maps a popularity rank to an object ID (a seeded permutation).
	byRank []core.ObjectID
	// followers[id-1] is the seeded follower list of object id.
	followers [][]core.ObjectID
	edges     int
	// Argument vectors are built once so the load generator allocates
	// nothing per op: allocs_per_op is the system's.
	limitArgs  map[int][][]byte
	postArgs   [][][]byte // by id-1
	followArgs [][][]byte // by follower id-1
}

// followerDegrees is the follower-count sequence by popularity rank:
// Zipf(1.3) over [1,33], as internal/workload's populate draws it. It is
// drawn from a constant so the graph's shape — and with it the cost of a
// create_post — is the same for every seed; the seed decides which
// objects hold which rank and who the followers are.
func followerDegrees(n int) []int {
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.3, 1, 32)
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64()) + 1
	}
	return out
}

func newInputs(w *workloadSpec, seed int64) *inputs {
	in := &inputs{w: w, seed: seed, limitArgs: make(map[int][][]byte)}
	rng := rand.New(rand.NewSource(seed))
	n := w.accounts
	in.byRank = make([]core.ObjectID, n)
	for i, p := range rng.Perm(n) {
		in.byRank[i] = core.ObjectID(p + 1)
	}
	in.followers = make([][]core.ObjectID, n)
	if w.graph {
		for rank, deg := range followerDegrees(n) {
			id := in.byRank[rank]
			seen := map[core.ObjectID]bool{id: true}
			for len(in.followers[id-1]) < deg {
				f := core.ObjectID(rng.Intn(n) + 1)
				if !seen[f] {
					seen[f] = true
					in.followers[id-1] = append(in.followers[id-1], f)
				}
			}
			in.edges += deg
		}
	}
	for l := w.limitLo; l <= w.limitHi; l++ {
		in.limitArgs[l] = [][]byte{core.I64Bytes(int64(l))}
	}
	in.postArgs = make([][][]byte, n)
	in.followArgs = make([][][]byte, n)
	for i := 0; i < n; i++ {
		id := core.ObjectID(i + 1)
		in.postArgs[i] = [][]byte{postBody(id)}
		in.followArgs[i] = [][]byte{core.I64Bytes(int64(id))}
	}
	return in
}

// args returns the method's argument vector for o.
func (in *inputs) args(o op) [][]byte {
	switch o.kind {
	case opRead:
		return in.limitArgs[o.limit]
	case opPost:
		return in.postArgs[o.obj-1]
	default:
		return in.followArgs[o.who-1]
	}
}

// splitmix64 is the hash behind seeded post contents.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// seededPost is the idx-th seeded timeline entry of object id: its author
// and 24-byte body are a pure function of (seed, id, idx), which is what
// lets the oracle check a read without remembering what was written. The
// entry's time field is idx, far below any wall-clock post time.
func (in *inputs) seededPost(id core.ObjectID, idx int) retwis.Post {
	h := splitmix64(uint64(in.seed)<<32 ^ uint64(id)<<8 ^ uint64(idx))
	const hex = "0123456789abcdef"
	body := make([]byte, seedBodyLen)
	for i := range body {
		body[i] = hex[(h>>(uint(i%16)*4))&15]
	}
	return retwis.Post{
		Author: core.ObjectID(h%uint64(in.w.accounts)) + 1,
		Time:   int64(idx),
		Msg:    string(body),
	}
}

// postBody is the 100-byte message every create_post by author carries;
// a read that returns a workload-written post is checked against it.
func postBody(author core.ObjectID) []byte {
	body := make([]byte, postBodyLen)
	binary.LittleEndian.PutUint64(body, uint64(author))
	for i := 8; i < len(body); i++ {
		body[i] = byte('a' + (int(author)+i)%26)
	}
	return body
}

// stream is one client's deterministic op sequence.
type stream struct {
	in   *inputs
	rng  *rand.Rand
	zipf *rand.Zipf
}

// newStream derives client's stream from the seed; salt separates the
// warm-up's stream from the measured one.
func (in *inputs) newStream(client int, salt int64) *stream {
	s := &stream{in: in, rng: rand.New(rand.NewSource(in.seed*1_000_003 + salt*7919 + int64(client)))}
	if in.w.keyZipf > 1 {
		s.zipf = rand.NewZipf(s.rng, in.w.keyZipf, 1, uint64(in.w.accounts-1))
	}
	return s
}

func (s *stream) uniform() core.ObjectID {
	return core.ObjectID(s.rng.Intn(s.in.w.accounts) + 1)
}

func (s *stream) next() op {
	w := s.in.w
	kind := opRead
	if w.writes() {
		switch p := s.rng.Intn(100); {
		case p < w.postPct:
			kind = opPost
		case p < w.postPct+w.followPct:
			kind = opFollow
		}
	}
	if kind == opFollow {
		// The followed account is uniform even under a Zipf key choice:
		// followers piled onto the hottest author would make every one of
		// its posts dearer than the last, and the window would measure how
		// long it ran instead of how fast the system is.
		return op{kind: opFollow, obj: s.uniform(), who: s.uniform()}
	}
	o := op{kind: kind}
	if s.zipf != nil {
		o.obj = s.in.byRank[s.zipf.Uint64()]
	} else {
		o.obj = s.uniform()
	}
	if kind == opRead {
		o.limit = w.limitLo + s.rng.Intn(w.limitHi-w.limitLo+1)
	}
	return o
}
