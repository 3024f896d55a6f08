// Package retwis implements the paper's running example and evaluation
// workload (§2, §3.2, §5): a Retwis-style microblogging service. Each User
// is one LambdaObject holding the user's name, their posts, the accounts
// they follow / are followed by, a blocked set, and a timeline containing
// the posts of everyone they follow. Methods follow Listing 1:
//
//	create_post(msg)    — store the post locally, then fan store_post out
//	                      to every follower's timeline in parallel
//	store_post(a,t,m)   — append one post to this user's timeline (skipped
//	                      if the author is blocked — the §2 causality
//	                      example)
//	get_timeline(limit) — read the newest posts (read-only, cacheable)
//	follow(target)      — record the edge on both sides (cross-object)
//
// The methods are written in the guest assembly and run under the metered
// isolation runtime on BOTH architectures of the evaluation.
package retwis

import (
	"encoding/binary"
	"fmt"

	"lambdastore/internal/core"
	"lambdastore/internal/vm"
)

// TypeName is the registered object type.
const TypeName = "User"

// Source is the guest implementation of the User object.
const Source = `
;; result_i64(v): set an 8-byte little-endian result.
func result_i64 params=1 locals=1
  push 8
  hostcall alloc
  local.set 1
  local.get 1
  local.get 0
  store64
  local.get 1
  push 8
  hostcall set_result
  ret
end

;; create_account(name): initialize the profile.
func create_account params=0 export
  str "name"
  push 0
  hostcall arg
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall val_set
  ret
end

;; get_name() -> bytes
func get_name params=0 export
  str "name"
  hostcall val_get
  dup
  push -1
  eq
  jnz missing
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall set_result
  ret
missing:
  pop
  ret
end

;; add_follower(uid): append raw 8-byte id to "followers".
func add_follower params=0 export
  str "followers"
  push 0
  hostcall arg
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall list_push
  ret
end

;; follow(target): record edge on both sides (cross-object invocation).
func follow params=0 locals=1 export
  str "following"
  push 0
  hostcall arg
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall list_push
  ;; stage self id, then invoke target.add_follower
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  hostcall self_id
  store64
  local.get 0
  push 8
  hostcall call_arg
  push 0
  hostcall arg
  unpack.ptr
  load64
  str "add_follower"
  hostcall invoke
  pop
  ret
end

;; block(uid): authors in "blocked" never reach this timeline again.
func block params=0 export
  str "blocked"
  push 0
  hostcall arg
  dup
  unpack.ptr
  swap
  unpack.len
  str "1"
  hostcall map_set
  ret
end

;; follower_count() -> i64
func follower_count params=0 export
  str "followers"
  hostcall list_len
  call result_i64
  ret
end

;; timeline_len() -> i64
func timeline_len params=0 export
  str "timeline"
  hostcall list_len
  call result_i64
  ret
end

;; store_post(author8, time8, msg): append to the timeline unless the
;; author is blocked.
func store_post params=0 locals=6 export
  ;; locals: 0=author 1=time 2=msgptr 3=msglen 4=entry 5=entrylen
  ;; blocked check first (reads only)
  str "blocked"
  push 0
  hostcall arg
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall map_get
  push -1
  ne
  jnz blocked
  push 0
  hostcall arg
  unpack.ptr
  load64
  local.set 0
  push 1
  hostcall arg
  unpack.ptr
  load64
  local.set 1
  push 2
  hostcall arg
  dup
  unpack.ptr
  local.set 2
  unpack.len
  local.set 3
  ;; entry = author8 | time8 | msg
  local.get 3
  push 16
  add
  local.set 5
  local.get 5
  hostcall alloc
  local.set 4
  local.get 4
  local.get 0
  store64
  local.get 4
  push 8
  add
  local.get 1
  store64
  local.get 4
  push 16
  add
  local.get 2
  local.get 3
  memcopy
  str "timeline"
  local.get 4
  local.get 5
  hostcall list_push
blocked:
  ret
end

;; create_post(msg): store locally, then fan out to followers in parallel
;; (Listing 1). Returns the number of follower deliveries.
func create_post params=0 locals=10 export
  ;; locals: 0=msgptr 1=msglen 2=author 3=time 4=entry 5=entrylen
  ;;         6=nfollowers 7=i 8=buf 9=fid
  push 0
  hostcall arg
  dup
  unpack.ptr
  local.set 0
  unpack.len
  local.set 1
  hostcall self_id
  local.set 2
  hostcall time
  local.set 3
  ;; entry = author8 | time8 | msg
  local.get 1
  push 16
  add
  local.set 5
  local.get 5
  hostcall alloc
  local.set 4
  local.get 4
  local.get 2
  store64
  local.get 4
  push 8
  add
  local.get 3
  store64
  local.get 4
  push 16
  add
  local.get 0
  local.get 1
  memcopy
  str "posts"
  local.get 4
  local.get 5
  hostcall list_push
  str "timeline"
  local.get 4
  local.get 5
  hostcall list_push
  ;; fan out store_post to each follower in parallel
  str "followers"
  hostcall list_len
  local.set 6
  push 0
  local.set 7
fan:
  local.get 7
  local.get 6
  ge_s
  jnz wait_init
  str "followers"
  local.get 7
  hostcall list_get
  unpack.ptr
  load64
  local.set 9
  ;; stage (author, time, msg)
  push 8
  hostcall alloc
  local.set 8
  local.get 8
  local.get 2
  store64
  local.get 8
  push 8
  hostcall call_arg
  push 8
  hostcall alloc
  local.set 8
  local.get 8
  local.get 3
  store64
  local.get 8
  push 8
  hostcall call_arg
  local.get 0
  local.get 1
  hostcall call_arg
  local.get 9
  str "store_post"
  hostcall invoke_start
  pop
  local.get 7
  push 1
  add
  local.set 7
  jmp fan
wait_init:
  push 0
  local.set 7
wait:
  local.get 7
  local.get 6
  ge_s
  jnz done
  local.get 7
  hostcall invoke_wait
  pop
  local.get 7
  push 1
  add
  local.set 7
  jmp wait
done:
  local.get 6
  call result_i64
  ret
end

;; get_timeline(limit): newest "limit" posts, serialized as
;; [len8 | entry]* (oldest of the window first). One list_get per entry:
;; the fetch pass keeps each entry's handle in a guest array while it sums
;; their sizes, and the copy pass moves each entry with one memcopy.
func get_timeline params=0 locals=10 export
  ;; locals: 0=limit 1=n 2=start 3=i 4=total 5=h 6=handles 7=end 8=out 9=w
  push 0
  hostcall arg
  unpack.ptr
  load64
  local.set 0
  str "timeline"
  hostcall list_len
  local.set 1
  ;; start = n - limit, clamped to [0, n]
  local.get 1
  local.get 0
  sub
  local.set 2
  local.get 2
  push 0
  ge_s
  jnz start_nonneg
  push 0
  local.set 2
start_nonneg:
  local.get 2
  local.get 1
  le_s
  jnz have_start
  local.get 1
  local.set 2
have_start:
  ;; handles = alloc(8 * (n - start))
  local.get 1
  local.get 2
  sub
  push 8
  mul
  hostcall alloc
  local.tee 6
  local.set 7
  local.get 2
  local.set 3
fetch:
  local.get 3
  local.get 1
  ge_s
  jnz alloc_out
  local.get 7
  str "timeline"
  local.get 3
  hostcall list_get
  local.tee 5
  store64
  local.get 5
  unpack.len
  local.get 4
  add
  local.set 4
  local.get 7
  push 8
  add
  local.set 7
  local.get 3
  push 1
  add
  local.set 3
  jmp fetch
alloc_out:
  ;; total = entry bytes + one len8 per entry (end - handles)
  local.get 4
  local.get 7
  add
  local.get 6
  sub
  local.tee 4
  hostcall alloc
  local.tee 8
  local.set 9
copy:
  local.get 6
  local.get 7
  ge_s
  jnz finish
  local.get 6
  load64
  local.set 5
  local.get 9
  local.get 5
  unpack.len
  store64
  local.get 9
  push 8
  add
  local.set 9
  local.get 9
  local.get 5
  unpack.ptr
  local.get 5
  unpack.len
  memcopy
  local.get 9
  local.get 5
  unpack.len
  add
  local.set 9
  local.get 6
  push 8
  add
  local.set 6
  jmp copy
finish:
  local.get 8
  local.get 4
  hostcall set_result
  ret
end
`

// Methods names the public surface. Which methods are reads, and which of
// those are cached, the runtime derives from Source when the type is linked.
var Methods = []core.MethodInfo{
	{Name: "create_account"},
	{Name: "get_name"},
	{Name: "add_follower"},
	{Name: "follow"},
	{Name: "block"},
	{Name: "follower_count"},
	{Name: "timeline_len"},
	{Name: "store_post"},
	{Name: "create_post"},
	{Name: "get_timeline"},
}

// Fields declares the User object's state.
var Fields = []core.FieldDef{
	{Name: "name", Kind: core.FieldValue},
	{Name: "followers", Kind: core.FieldList},
	{Name: "following", Kind: core.FieldList},
	{Name: "posts", Kind: core.FieldList},
	{Name: "timeline", Kind: core.FieldList},
	{Name: "blocked", Kind: core.FieldMap},
}

// NewType compiles the User object type.
func NewType() (*core.ObjectType, error) {
	mod, err := vm.Assemble(Source)
	if err != nil {
		return nil, fmt.Errorf("retwis: assemble: %w", err)
	}
	return core.NewObjectType(TypeName, Fields, Methods, mod)
}

// MustType panics on assembly errors (static source).
func MustType() *core.ObjectType {
	t, err := NewType()
	if err != nil {
		panic(err)
	}
	return t
}

// Post is one decoded timeline entry.
type Post struct {
	Author core.ObjectID
	Time   int64
	Msg    string
}

// DecodeTimeline parses get_timeline's result.
func DecodeTimeline(data []byte) ([]Post, error) {
	var posts []Post
	for len(data) > 0 {
		if len(data) < 8 {
			return nil, fmt.Errorf("retwis: truncated timeline length")
		}
		n := binary.LittleEndian.Uint64(data)
		data = data[8:]
		if uint64(len(data)) < n || n < 16 {
			return nil, fmt.Errorf("retwis: truncated timeline entry (%d of %d)", len(data), n)
		}
		entry := data[:n]
		data = data[n:]
		posts = append(posts, Post{
			Author: core.ObjectID(binary.LittleEndian.Uint64(entry)),
			Time:   int64(binary.LittleEndian.Uint64(entry[8:])),
			Msg:    string(entry[16:]),
		})
	}
	return posts, nil
}
