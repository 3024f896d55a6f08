package retwis

import (
	"fmt"
	"testing"

	"lambdastore/internal/core"
)

// TestCreatePostAllocBound guards the write path end to end on one runtime:
// a create_post to n followers is 1+n commits (the author's, then one
// store_post per follower) of 3 keys each, and the whole job allocates a
// bounded number of objects whatever n is. Nothing is paid per follower: the
// nested call's arguments are staged in the caller's pooled slab, its async
// record and goroutine entry are recycled, the method name is interned, and
// the callee's invocation, txn, snapshot, admission, write buffer, batch, WAL
// group and memtable insert allocate nothing once warm. Nor does the result:
// the guest stages it in its pooled buffer and the job copies it into a
// buffer it reuses, as a server builds it into a request frame's reply
// scratch. Measured 0 at both widths (Invoke, whose caller owns the bytes,
// reads 1).
func TestCreatePostAllocBound(t *testing.T) {
	for _, followers := range []int{8, 64} {
		t.Run(fmt.Sprintf("followers=%d", followers), func(t *testing.T) {
			rt := newRuntime(t)
			mkUser(t, rt, 1, "author")
			for id := core.ObjectID(2); id < core.ObjectID(2+followers); id++ {
				mkUser(t, rt, id, fmt.Sprintf("user%d", id))
				call(t, rt, id, "follow", core.I64Bytes(1))
			}
			args := [][]byte{[]byte("a post of a typical length, sixty-four bytes or so, like this")}
			var buf []byte
			post := func() {
				res, err := rt.InvokeTo(&buf, 1, "create_post", args, core.CallCtx{})
				buf = buf[:0]
				if err != nil || core.BytesI64(res) != int64(followers) {
					t.Fatalf("create_post = %d deliveries, %v", core.BytesI64(res), err)
				}
			}
			for i := 0; i < 50; i++ {
				post()
			}
			const perJob = 0
			allocs := testing.AllocsPerRun(200, post)
			if allocs > perJob && !raceEnabled {
				t.Fatalf("create_post to %d followers allocates %.1f objects, want <= %d per job", followers, allocs, perJob)
			}
			t.Logf("create_post to %d followers: %.1f allocs per job", followers, allocs)
		})
	}
}

// BenchmarkCreatePost is one create_post to 8 followers on one runtime, the
// whole job: 9 fsynced commits and 8 parallel nested calls, its result built
// in a reused buffer. With -benchmem its allocs/op is
// TestCreatePostAllocBound's figure.
func BenchmarkCreatePost(b *testing.B) {
	rt := newRuntime(b)
	const followers = 8
	mkUser(b, rt, 1, "author")
	for id := core.ObjectID(2); id < 2+followers; id++ {
		mkUser(b, rt, id, fmt.Sprintf("user%d", id))
		call(b, rt, id, "follow", core.I64Bytes(1))
	}
	args := [][]byte{[]byte("a post of a typical length, sixty-four bytes or so, like this")}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.InvokeTo(&buf, 1, "create_post", args, core.CallCtx{}); err != nil {
			b.Fatal(err)
		}
		buf = buf[:0]
	}
}
