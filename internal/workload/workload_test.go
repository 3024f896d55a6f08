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
	cfg := Config{Accounts: 250}
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
	// IDs occupy [1, Accounts].
	for i := 0; i < cfg.Accounts; i++ {
		if !b.created[cfg.AccountID(i)] {
			t.Fatalf("account %d missing", i)
		}
	}
}

func TestPopulateReproducible(t *testing.T) {
	cfg := Config{Accounts: 100}
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
	cfg := Config{Accounts: 50}
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
	cfg := Config{Accounts: 100}
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
	cfg := Config{Accounts: 100}
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
	cfg := Config{Accounts: 10}
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
