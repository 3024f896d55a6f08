package baseline

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/store"
)

// newAggregated is the other side of the comparison: a single-node runtime
// over a local store, with the Retwis type installed.
func newAggregated(t *testing.T) *core.Runtime {
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
	if err := rt.RegisterType(retwis.MustType()); err != nil {
		t.Fatal(err)
	}
	return rt
}

// maskPostTimes zeroes the clock stamp of every entry of a get_timeline
// result (len8 | author8 | time8 | msg): the two architectures read
// different clocks, and nothing else may differ.
func maskPostTimes(t *testing.T, raw []byte) []byte {
	t.Helper()
	out := append([]byte(nil), raw...)
	for rest := out; len(rest) > 0; {
		if len(rest) < 8 {
			t.Fatalf("truncated timeline %x", raw)
		}
		n := binary.LittleEndian.Uint64(rest)
		if n < 16 || uint64(len(rest)-8) < n {
			t.Fatalf("truncated timeline entry in %x", raw)
		}
		clear(rest[16:24])
		rest = rest[8+n:]
	}
	return out
}

// TestGuestABIParity drives every Retwis operation through the aggregated
// runtime and through baseline compute+storage from the same empty state:
// one guest ABI means the same module returns the same bytes on both.
func TestGuestABIParity(t *testing.T) {
	rt := newAggregated(t)
	s := startStack(t, 0)
	s.registerType(t, retwis.MustType())
	client := NewDirectClient(s.compute.Addr(), nil)
	defer client.Close()

	const users = 6 // 5 gets a timeline of literal posts, 6 none
	for id := uint64(1); id <= users; id++ {
		if err := rt.CreateObject(retwis.TypeName, core.ObjectID(id), core.CallCtx{}); err != nil {
			t.Fatal(err)
		}
		s.create(t, id, retwis.TypeName)
	}

	type op struct {
		id     uint64
		method string
		args   [][]byte
	}
	i64 := core.I64Bytes
	var ops []op
	wants := map[int][]byte{} // ops whose result both architectures must return exactly
	for id := uint64(1); id <= users; id++ {
		ops = append(ops, op{id, "create_account", [][]byte{[]byte{'u', byte('0' + id)}}})
	}
	ops = append(ops,
		op{2, "follow", [][]byte{i64(1)}},
		op{3, "follow", [][]byte{i64(1)}},
		op{4, "follow", [][]byte{i64(1)}},
		op{1, "follow", [][]byte{i64(2)}},
		op{1, "add_follower", [][]byte{i64(77)}}, // dangling: delivery to it fails on both
		op{1, "follower_count", nil},
		op{3, "block", [][]byte{i64(1)}},
		op{2, "create_post", [][]byte{[]byte("from two")}},
		op{2, "store_post", [][]byte{i64(9), i64(12345), []byte("direct")}},
		op{4, "create_post", [][]byte{nil}},
	)
	for _, msg := range []string{"first", "second", strings.Repeat("long ", 200)} {
		ops = append(ops, op{2, "create_post", [][]byte{[]byte(msg)}})
	}
	for id := uint64(1); id <= users; id++ {
		ops = append(ops,
			op{id, "get_name", nil},
			op{id, "follower_count", nil},
			op{id, "timeline_len", nil},
			op{id, "get_timeline", [][]byte{i64(2)}},
			op{id, "get_timeline", [][]byte{i64(40)}},
		)
	}
	// get_timeline's window on a timeline of three posts by store_post
	// (author 7, times 100-102), and on an empty one: a negative limit
	// returns nothing, one past the length returns everything.
	for i, msg := range []string{"a", "bc", "def"} {
		ops = append(ops, op{5, "store_post", [][]byte{i64(7), i64(int64(100 + i)), []byte(msg)}})
	}
	const (
		postA   = "1100000000000000" + "0700000000000000" + "6400000000000000" + "61"
		postBC  = "1200000000000000" + "0700000000000000" + "6500000000000000" + "6263"
		postDEF = "1300000000000000" + "0700000000000000" + "6600000000000000" + "646566"
	)
	for _, w := range []struct {
		id    uint64
		limit int64
		want  string
	}{
		{5, -1, ""}, {5, 0, ""}, {5, 1, postDEF}, {5, 3, postA + postBC + postDEF}, {5, 8, postA + postBC + postDEF},
		{6, -1, ""}, {6, 0, ""}, {6, 1, ""}, {6, 5, ""},
	} {
		want, err := hex.DecodeString(w.want)
		if err != nil {
			t.Fatal(err)
		}
		wants[len(ops)] = want
		ops = append(ops, op{w.id, "get_timeline", [][]byte{i64(w.limit)}})
	}
	ops = append(ops,
		op{1, "create_post", [][]byte{[]byte("fan-out with a dead follower")}},
		op{1, "no_such_method", nil},
		op{99, "get_name", nil},
	)

	for i, o := range ops {
		agg, aggErr := rt.Invoke(core.ObjectID(o.id), o.method, o.args)
		dis, disErr := client.Invoke(o.id, o.method, o.args)
		if (aggErr == nil) != (disErr == nil) {
			t.Fatalf("%d.%s: aggregated err %v, disaggregated err %v", o.id, o.method, aggErr, disErr)
		}
		if want, ok := wants[i]; ok && (aggErr != nil || !bytes.Equal(agg, want) || !bytes.Equal(dis, want)) {
			t.Fatalf("%d.%s(%x): aggregated %x (err %v), disaggregated %x, want %x", o.id, o.method, o.args, agg, aggErr, dis, want)
		}
		if o.method == "get_timeline" && aggErr == nil {
			agg, dis = maskPostTimes(t, agg), maskPostTimes(t, dis)
		}
		if !bytes.Equal(agg, dis) {
			t.Fatalf("%d.%s: aggregated %x, disaggregated %x", o.id, o.method, agg, dis)
		}
	}
	if n := core.BytesI64(mustInvoke(t, client, 2, "timeline_len")); n < 4 {
		t.Fatalf("timeline of 2 has %d entries: the sequence did not exercise the fan-out", n)
	}
}

func mustInvoke(t *testing.T, c *DirectClient, id uint64, method string, args ...[]byte) []byte {
	t.Helper()
	res, err := c.Invoke(id, method, args)
	if err != nil {
		t.Fatalf("%d.%s: %v", id, method, err)
	}
	return res
}

// TestOneGuestABI keeps fuel and signature parity structural: outside tests,
// only internal/core may define host functions, so the baseline (and
// whatever comes next) can only resolve a module's imports from core's
// table.
func TestOneGuestABI(t *testing.T) {
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
				filepath.Base(filepath.Dir(path)) == "core" {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, needle := range []string{"vm.HostFunc{", "vm.NewHostTable()"} {
				if bytes.Contains(src, []byte(needle)) {
					t.Errorf("%s: %s outside internal/core — a second copy of the guest ABI", path, needle)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBaselineWarmPoolLanes: the compute node keeps warm instances in core's
// pool, so the same call sequence starts the same number of warm and cold
// instances on both architectures — one lane per (module, method), where a
// per-module pool would reuse get_name's instance for follower_count.
func TestBaselineWarmPoolLanes(t *testing.T) {
	rt := newAggregated(t)
	s := startStack(t, 0)
	s.registerType(t, retwis.MustType())
	client := NewDirectClient(s.compute.Addr(), nil)
	defer client.Close()
	if err := rt.CreateObject(retwis.TypeName, 1, core.CallCtx{}); err != nil {
		t.Fatal(err)
	}
	s.create(t, 1, retwis.TypeName)

	seq := []string{"get_name", "follower_count", "get_name", "timeline_len", "follower_count", "get_name"}
	for _, m := range seq {
		if _, err := rt.Invoke(1, m, nil); err != nil {
			t.Fatal(err)
		}
		mustInvoke(t, client, 1, m)
	}
	aw, ac := rt.PoolStats()
	bw, bc := s.compute.vms.Stats()
	if aw != bw || ac != bc {
		t.Fatalf("warm/cold starts: aggregated %d/%d, baseline %d/%d", aw, ac, bw, bc)
	}
	if ac != 3 || aw != 3 {
		t.Fatalf("warm/cold = %d/%d, want 3/3: one cold start per distinct method", aw, ac)
	}
}
