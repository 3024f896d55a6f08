package workload

import (
	"fmt"
	"sync"
	"testing"

	"lambdastore/internal/core"
)

// fakeBackend records invocations, standing in for a deployment.
type fakeBackend struct {
	mu      sync.Mutex
	created map[uint64]bool
	calls   map[string]int
	byObj   map[uint64]int
	fail    func(method string) error
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		created: make(map[uint64]bool),
		calls:   make(map[string]int),
		byObj:   make(map[uint64]int),
	}
}

func (f *fakeBackend) create(id uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.created[id] {
		return fmt.Errorf("duplicate create %d", id)
	}
	f.created[id] = true
	return nil
}

func (f *fakeBackend) Invoke(object uint64, method string, args [][]byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		if err := f.fail(method); err != nil {
			return nil, err
		}
	}
	f.calls[method]++
	f.byObj[object]++
	return nil, nil
}

func TestPopulateCreatesEveryAccountOnce(t *testing.T) {
	cfg := DefaultConfig(250)
	b := newFakeBackend()
	if err := Populate(cfg, b.create, b); err != nil {
		t.Fatal(err)
	}
	if len(b.created) != 250 {
		t.Fatalf("created %d accounts", len(b.created))
	}
	if b.calls["create_account"] != 250 {
		t.Fatalf("create_account calls = %d", b.calls["create_account"])
	}
	if b.calls["add_follower"] == 0 {
		t.Fatal("no follower edges created")
	}
	// IDs occupy [FirstID, FirstID+Accounts).
	for i := 0; i < cfg.Accounts; i++ {
		if !b.created[cfg.AccountID(i)] {
			t.Fatalf("account %d missing", i)
		}
	}
}

func TestPopulateDeterministic(t *testing.T) {
	cfg := DefaultConfig(100)
	b1, b2 := newFakeBackend(), newFakeBackend()
	if err := Populate(cfg, b1.create, b1); err != nil {
		t.Fatal(err)
	}
	if err := Populate(cfg, b2.create, b2); err != nil {
		t.Fatal(err)
	}
	if b1.calls["add_follower"] != b2.calls["add_follower"] {
		t.Fatalf("edge counts differ: %d vs %d", b1.calls["add_follower"], b2.calls["add_follower"])
	}
}

func TestPopulatePropagatesErrors(t *testing.T) {
	cfg := DefaultConfig(50)
	b := newFakeBackend()
	b.fail = func(method string) error {
		if method == "create_account" {
			return fmt.Errorf("boom")
		}
		return nil
	}
	if err := Populate(cfg, b.create, b); err == nil {
		t.Fatal("populate swallowed the error")
	}
}

func TestOpStreams(t *testing.T) {
	cfg := DefaultConfig(100)
	b := newFakeBackend()
	for _, wl := range Workloads {
		op, err := OpStream(cfg, wl, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := op(); err != nil {
				t.Fatalf("%s op: %v", wl, err)
			}
		}
	}
	if b.calls["create_post"] != 20 || b.calls["get_timeline"] != 20 || b.calls["add_follower"] != 20 {
		t.Fatalf("calls = %v", b.calls)
	}
	if _, err := OpStream(cfg, "Nope", b, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunClosedLoopCompletesExactly(t *testing.T) {
	cfg := DefaultConfig(100)
	b := newFakeBackend()
	res, err := RunClosedLoop(cfg, Follow, b, 8, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 500 || res.Errors != 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Throughput <= 0 || res.Latency.Quantile(0.5) <= 0 {
		t.Fatalf("metrics %+v", res)
	}
	if b.calls["add_follower"] != 500 {
		t.Fatalf("backend saw %d ops", b.calls["add_follower"])
	}
}

func TestRunClosedLoopAllFailing(t *testing.T) {
	cfg := DefaultConfig(10)
	b := newFakeBackend()
	b.fail = func(string) error { return fmt.Errorf("down") }
	res, err := RunClosedLoop(cfg, Follow, b, 4, 50)
	if err == nil {
		t.Fatalf("all-failing run reported success: %+v", res)
	}
}

func TestInvokerFunc(t *testing.T) {
	called := false
	inv := InvokerFunc(func(object uint64, method string, args [][]byte) ([]byte, error) {
		called = true
		return core.I64Bytes(1), nil
	})
	if _, err := inv.Invoke(1, "m", nil); err != nil || !called {
		t.Fatal("InvokerFunc broken")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Workload: "Post", Ops: 10, Throughput: 123.4}
	if r.String() == "" {
		t.Fatal("empty render")
	}
}

func TestHotspotZipfSkew(t *testing.T) {
	be := newFakeBackend()
	cfg := DefaultConfig(64)
	cfg.HotspotS = 1.2
	op, err := OpStream(cfg, Post, be, 0)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 5000
	for i := 0; i < ops; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	// Rank 0 (account index 0) must dominate: with s=1.2 over 64
	// accounts it should carry well over a tenth of all traffic, which
	// a uniform pick (1/64) never approaches.
	hottest := be.byObj[cfg.AccountID(0)]
	if hottest < ops/10 {
		t.Fatalf("hotspot account got %d/%d ops; zipf skew not applied", hottest, ops)
	}
}

func TestHotspotStrideConcentratesGroups(t *testing.T) {
	be := newFakeBackend()
	const groups = 4
	cfg := DefaultConfig(64)
	cfg.FirstID = 0 // align account index with object id for the mod check
	cfg.HotspotS = 1.2
	cfg.HotspotStride = groups
	op, err := OpStream(cfg, Post, be, 0)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 5000
	for i := 0; i < ops; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	perGroup := make([]int, groups)
	for id, n := range be.byObj {
		perGroup[id%groups] += n
	}
	// Every rank maps to a multiple of the stride, so under id-mod-4
	// placement all traffic must land on group 0.
	for g := 1; g < groups; g++ {
		if perGroup[g] != 0 {
			t.Fatalf("stride leak: group %d got %d ops (%v)", g, perGroup[g], perGroup)
		}
	}
	if perGroup[0] != ops {
		t.Fatalf("group 0 got %d/%d ops", perGroup[0], ops)
	}
}
