package retwis

import (
	"fmt"
	"testing"

	"lambdastore/internal/core"
)

// TestCreatePostAllocBound guards the commit path end to end on one
// runtime: a create_post to 8 followers is 9 commits (the author's, then
// one store_post per follower) of 3 keys each, and its allocations are
// bounded per commit — the guest boundary, admission, the nested call —
// with nothing per key: the write buffer, the batch, the WAL group and the
// memtable insert allocate nothing once warm.
func TestCreatePostAllocBound(t *testing.T) {
	rt := newRuntime(t)
	const followers = 8
	mkUser(t, rt, 1, "author")
	for id := core.ObjectID(2); id < 2+followers; id++ {
		mkUser(t, rt, id, fmt.Sprintf("user%d", id))
		call(t, rt, id, "follow", core.I64Bytes(1))
	}
	args := [][]byte{[]byte("a post of a typical length, sixty-four bytes or so, like this")}
	post := func() {
		res, err := rt.Invoke(1, "create_post", args)
		if err != nil || core.BytesI64(res) != followers {
			t.Fatalf("create_post = %d deliveries, %v", core.BytesI64(res), err)
		}
	}
	for i := 0; i < 50; i++ {
		post()
	}
	const commits = 1 + followers
	const perCommit = 16
	allocs := testing.AllocsPerRun(200, post)
	if allocs > perCommit*commits && !raceEnabled {
		t.Fatalf("create_post to %d followers allocates %.1f objects, want <= %d per commit", followers, allocs, perCommit)
	}
	t.Logf("create_post to %d followers: %.1f allocs, %.1f per commit", followers, allocs, allocs/commits)
}
