package retwis

import (
	"fmt"
	"testing"
	"testing/quick"

	"lambdastore/internal/core"
	"lambdastore/internal/store"
)

func newRuntime(t *testing.T) *core.Runtime {
	t.Helper()
	db, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rt, err := core.NewRuntime(db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	typ, err := NewType()
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	return rt
}

func mkUser(t *testing.T, rt *core.Runtime, id core.ObjectID, name string) {
	t.Helper()
	if err := rt.CreateObject(TypeName, id, core.CallCtx{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(id, "create_account", [][]byte{[]byte(name)}); err != nil {
		t.Fatal(err)
	}
}

func call(t *testing.T, rt *core.Runtime, id core.ObjectID, method string, args ...[]byte) []byte {
	t.Helper()
	res, err := rt.Invoke(id, method, args)
	if err != nil {
		t.Fatalf("%s.%s: %v", id, method, err)
	}
	return res
}

func TestAccountAndName(t *testing.T) {
	rt := newRuntime(t)
	mkUser(t, rt, 1, "alice")
	if got := call(t, rt, 1, "get_name"); string(got) != "alice" {
		t.Fatalf("get_name = %q", got)
	}
}

func TestFollowRecordsBothSides(t *testing.T) {
	rt := newRuntime(t)
	mkUser(t, rt, 1, "alice")
	mkUser(t, rt, 2, "bob")
	// bob follows alice: alice gains a follower.
	call(t, rt, 2, "follow", core.I64Bytes(1))
	if got := core.BytesI64(call(t, rt, 1, "follower_count")); got != 1 {
		t.Fatalf("alice follower_count = %d", got)
	}
	if got := core.BytesI64(call(t, rt, 2, "follower_count")); got != 0 {
		t.Fatalf("bob follower_count = %d", got)
	}
}

func TestCreatePostFansOutToFollowers(t *testing.T) {
	rt := newRuntime(t)
	mkUser(t, rt, 1, "alice")
	for id := core.ObjectID(2); id <= 6; id++ {
		mkUser(t, rt, id, fmt.Sprintf("user%d", id))
		call(t, rt, id, "follow", core.I64Bytes(1))
	}
	res := call(t, rt, 1, "create_post", []byte("hello world"))
	if core.BytesI64(res) != 5 {
		t.Fatalf("create_post deliveries = %d", core.BytesI64(res))
	}
	// Alice's own timeline has the post.
	if got := core.BytesI64(call(t, rt, 1, "timeline_len")); got != 1 {
		t.Fatalf("alice timeline_len = %d", got)
	}
	// Every follower's timeline received it.
	for id := core.ObjectID(2); id <= 6; id++ {
		raw := call(t, rt, id, "get_timeline", core.I64Bytes(10))
		posts, err := DecodeTimeline(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(posts) != 1 || posts[0].Author != 1 || posts[0].Msg != "hello world" {
			t.Fatalf("user %d timeline = %+v", id, posts)
		}
		if posts[0].Time == 0 {
			t.Fatalf("post timestamp missing")
		}
	}
}

func TestGetTimelineLimitAndOrder(t *testing.T) {
	rt := newRuntime(t)
	mkUser(t, rt, 1, "alice")
	for i := 0; i < 15; i++ {
		call(t, rt, 1, "create_post", []byte(fmt.Sprintf("post-%02d", i)))
	}
	raw := call(t, rt, 1, "get_timeline", core.I64Bytes(10))
	posts, err := DecodeTimeline(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 10 {
		t.Fatalf("timeline window = %d posts", len(posts))
	}
	// Window is the newest 10, oldest-first: post-05 .. post-14.
	for i, p := range posts {
		if want := fmt.Sprintf("post-%02d", i+5); p.Msg != want {
			t.Fatalf("posts[%d] = %q, want %q", i, p.Msg, want)
		}
	}
	// Limit beyond length returns everything.
	raw = call(t, rt, 1, "get_timeline", core.I64Bytes(100))
	posts, _ = DecodeTimeline(raw)
	if len(posts) != 15 {
		t.Fatalf("full timeline = %d posts", len(posts))
	}
}

func TestBlockSuppressesFuturePosts(t *testing.T) {
	// The paper's §2 motivating scenario: after a block, new posts from the
	// blocked author must not reach the timeline — and with invocation
	// linearizability, a block that returns before create_post is issued is
	// guaranteed to be respected.
	rt := newRuntime(t)
	mkUser(t, rt, 1, "author")
	mkUser(t, rt, 2, "reader")
	call(t, rt, 2, "follow", core.I64Bytes(1))

	call(t, rt, 1, "create_post", []byte("pre-block"))
	if got := core.BytesI64(call(t, rt, 2, "timeline_len")); got != 1 {
		t.Fatalf("timeline before block = %d", got)
	}

	// reader blocks author; the block committed before the next post.
	call(t, rt, 2, "block", core.I64Bytes(1))
	call(t, rt, 1, "create_post", []byte("post-block"))

	posts, err := DecodeTimeline(call(t, rt, 2, "get_timeline", core.I64Bytes(10)))
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 1 || posts[0].Msg != "pre-block" {
		t.Fatalf("timeline after block = %+v", posts)
	}
}

func TestTimelineCaching(t *testing.T) {
	db, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rt, err := core.NewRuntime(db, core.Options{CacheEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterType(MustType()); err != nil {
		t.Fatal(err)
	}
	mkUser(t, rt, 1, "alice")
	call(t, rt, 1, "create_post", []byte("p1"))

	first := call(t, rt, 1, "get_timeline", core.I64Bytes(10))
	second := call(t, rt, 1, "get_timeline", core.I64Bytes(10))
	if string(first) != string(second) {
		t.Fatal("cached timeline differs")
	}
	if rt.Cache().Stats().Hits == 0 {
		t.Fatal("expected a cache hit for get_timeline")
	}
	// A new post invalidates.
	call(t, rt, 1, "create_post", []byte("p2"))
	posts, _ := DecodeTimeline(call(t, rt, 1, "get_timeline", core.I64Bytes(10)))
	if len(posts) != 2 {
		t.Fatalf("timeline after invalidation = %d posts (stale cache)", len(posts))
	}
}

func TestDecodeTimelineErrors(t *testing.T) {
	if _, err := DecodeTimeline([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated length decoded")
	}
	bad := append(core.I64Bytes(100), []byte("short")...)
	if _, err := DecodeTimeline(bad); err == nil {
		t.Fatal("truncated entry decoded")
	}
	if posts, err := DecodeTimeline(nil); err != nil || len(posts) != 0 {
		t.Fatalf("empty timeline: %v %v", posts, err)
	}
}

func TestDecodeTimelineNeverPanics(t *testing.T) {
	f := func(garbage []byte) bool {
		_, _ = DecodeTimeline(garbage) // error is fine; panic is not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
