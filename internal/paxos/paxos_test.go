package paxos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"lambdastore/internal/rpc"
)

// newCluster builds n nodes on a shared local transport.
func newCluster(n int) ([]*Node, *LocalTransport) {
	trans := NewLocalTransport()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	nodes := make([]*Node, n)
	for i := range ids {
		nodes[i] = NewNode(ids[i], ids, trans)
		trans.Register(nodes[i])
	}
	return nodes, trans
}

// set is a change that replaces the register's value.
func set(v string) func([]byte) ([]byte, error) {
	return func([]byte) ([]byte, error) { return []byte(v), nil }
}

// appendTo is a change that appends v to a comma-separated list.
func appendTo(v string) func([]byte) ([]byte, error) {
	return func(cur []byte) ([]byte, error) {
		if len(cur) == 0 {
			return []byte(v), nil
		}
		return []byte(string(cur) + "," + v), nil
	}
}

// learned returns what each node learned last.
func learned(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = string(n.Learned().Value)
	}
	return out
}

func TestSingleProposerChoosesValues(t *testing.T) {
	nodes, _ := newCluster(3)
	var want []string
	for i := 0; i < 10; i++ {
		v := fmt.Sprintf("cmd-%d", i)
		want = append(want, v)
		got, err := nodes[0].Change(appendTo(v))
		if err != nil {
			t.Fatalf("change %d: %v", i, err)
		}
		if string(got) != strings.Join(want, ",") {
			t.Fatalf("change %d chose %q", i, got)
		}
	}
	for i, v := range learned(nodes) {
		if v != strings.Join(want, ",") {
			t.Fatalf("node %d learned %q", i, v)
		}
	}
}

// appendOnce is appendTo made idempotent, as a concurrent step must be: a
// rival's round can carry a lost phase 2's value forward, and the proposer
// that lost it then runs its step over a value that already holds it.
func appendOnce(v string) func([]byte) ([]byte, error) {
	return func(cur []byte) ([]byte, error) {
		if slices.Contains(strings.Split(string(cur), ","), v) {
			return cur, nil
		}
		return appendTo(v)(cur)
	}
}

// TestCompetingProposersAgree runs changes from every node at once: each
// change is a step over the value that was current when its round ran, so
// the final value holds every step exactly once and every node learns it.
func TestCompetingProposersAgree(t *testing.T) {
	nodes, _ := newCluster(3)
	const perNode = 20
	var wg sync.WaitGroup
	for ni, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				if _, err := n.Change(appendOnce(fmt.Sprintf("n%d-c%d", ni, i))); err != nil {
					t.Errorf("node %d change: %v", ni, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range nodes {
		n.Pull()
	}
	got := learned(nodes)
	seen := make(map[string]int)
	for _, v := range strings.Split(got[0], ",") {
		seen[v]++
	}
	for ni := range nodes {
		for i := 0; i < perNode; i++ {
			if cmd := fmt.Sprintf("n%d-c%d", ni, i); seen[cmd] != 1 {
				t.Fatalf("change %q applied %d times", cmd, seen[cmd])
			}
		}
		if got[ni] != got[0] {
			t.Fatalf("node %d learned %q, node 1 %q", ni+1, got[ni], got[0])
		}
	}
}

func TestProgressWithMinorityDown(t *testing.T) {
	nodes, trans := newCluster(3)
	trans.Disconnect(3)
	for i := 0; i < 5; i++ {
		if _, err := nodes[0].Change(appendTo(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("change with minority down: %v", err)
		}
	}
}

func TestNoProgressWithMajorityDown(t *testing.T) {
	nodes, trans := newCluster(3)
	trans.Disconnect(2)
	trans.Disconnect(3)
	if _, err := nodes[0].Change(set("doomed")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("change without quorum: %v", err)
	}
}

// TestRecoveredNodeCatchesUp: a node that missed changes has nothing to
// replay. The next learn it hears carries the whole value, and while
// nothing changes a pull brings it.
func TestRecoveredNodeCatchesUp(t *testing.T) {
	nodes, trans := newCluster(3)
	trans.Disconnect(3)
	for i := 0; i < 8; i++ {
		if _, err := nodes[0].Change(appendTo(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	trans.Reconnect(3)
	if got := learned(nodes)[2]; got != "" {
		t.Fatalf("partitioned node learned %q", got)
	}
	nodes[2].Pull()
	if got, want := learned(nodes)[2], learned(nodes)[0]; got != want {
		t.Fatalf("after a pull node 3 learned %q, want %q", got, want)
	}

	trans.Disconnect(3)
	if _, err := nodes[0].Change(appendTo("v8")); err != nil {
		t.Fatal(err)
	}
	trans.Reconnect(3)
	if _, err := nodes[1].Change(appendTo("v9")); err != nil {
		t.Fatal(err)
	}
	if got := learned(nodes)[2]; !strings.HasSuffix(got, "v7,v8,v9") {
		t.Fatalf("after the next learn node 3 holds %q", got)
	}
}

func TestChosenValueIsStable(t *testing.T) {
	// Once a value is chosen, a later proposer with a new ballot steps
	// from it rather than overwriting it: a no-op change returns it.
	nodes, _ := newCluster(3)
	if _, err := nodes[0].Change(set("first")); err != nil {
		t.Fatal(err)
	}
	got, err := nodes[1].Change(func(cur []byte) ([]byte, error) { return cur, nil })
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first" {
		t.Fatalf("chosen value re-decided to %q", got)
	}
}

// TestFailedStepChangesNothing: an error from the step abandons the change
// before phase 2.
func TestFailedStepChangesNothing(t *testing.T) {
	nodes, _ := newCluster(3)
	if _, err := nodes[0].Change(set("kept")); err != nil {
		t.Fatal(err)
	}
	refused := errors.New("refused")
	if _, err := nodes[1].Change(func([]byte) ([]byte, error) { return nil, refused }); err != refused {
		t.Fatalf("change = %v, want the step's error", err)
	}
	got, err := nodes[2].Change(func(cur []byte) ([]byte, error) { return cur, nil })
	if err != nil || string(got) != "kept" {
		t.Fatalf("after an abandoned change the register holds %q, %v", got, err)
	}
}

// TestNodeHoldsNoLog: a node's state is one promise, one vote and one
// learned value; no field grows with the number of changes.
func TestNodeHoldsNoLog(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Node{}), reflect.TypeOf(State{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() == reflect.Map || f.Type.Kind() == reflect.Slice && f.Name != "peers" {
				t.Errorf("%s.%s is a %s", typ.Name(), f.Name, f.Type)
			}
		}
	}
}

func TestAcceptorPromiseRules(t *testing.T) {
	n := NewNode(1, []uint64{1}, NewLocalTransport())
	low := Ballot{Round: 1, Node: 1}
	high := Ballot{Round: 2, Node: 1}
	if resp := n.HandlePrepare(high); !resp.OK {
		t.Fatal("first prepare rejected")
	}
	if resp := n.HandlePrepare(low); resp.OK {
		t.Fatal("lower ballot prepare accepted after higher promise")
	}
	if resp := n.HandleAccept(&Versioned{Ballot: low, Value: []byte("x")}); resp.OK {
		t.Fatal("lower ballot accept accepted")
	}
	if resp := n.HandleAccept(&Versioned{Ballot: high, Value: []byte("y")}); !resp.OK {
		t.Fatal("promised ballot accept rejected")
	}
	// Prepare at an even higher ballot must report the accepted value.
	resp := n.HandlePrepare(Ballot{Round: 3, Node: 1})
	if !resp.OK || resp.Accepted.Ballot != high || string(resp.Accepted.Value) != "y" {
		t.Fatalf("prepare resp %+v", resp)
	}
	// A learner adopts only a newer chosen value.
	n.HandleLearn(&Versioned{Ballot: high, Value: []byte("y")})
	n.HandleLearn(&Versioned{Ballot: low, Value: []byte("x")})
	if got := n.Learned(); got.Ballot != high || string(got.Value) != "y" {
		t.Fatalf("learned %+v after an older learn", got)
	}
}

func TestBallotOrdering(t *testing.T) {
	cases := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{1, 1}, Ballot{2, 1}, true},
		{Ballot{2, 1}, Ballot{1, 9}, false},
		{Ballot{1, 1}, Ballot{1, 2}, true},
		{Ballot{1, 2}, Ballot{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Fatalf("%v < %v = %v", c.a, c.b, got)
		}
	}
}

func TestMessageCodecs(t *testing.T) {
	b := Ballot{Round: 3, Node: 2}
	if b2, err := DecodeBallot(EncodeBallot(b)); err != nil || b2 != b {
		t.Fatalf("ballot round trip: %+v %v", b2, err)
	}
	rep := &Reply{OK: true, Promised: Ballot{4, 1}, Accepted: Versioned{Ballot: Ballot{2, 3}, Value: []byte("val")}}
	rep2, err := DecodeReply(EncodeReply(rep))
	if err != nil || rep2.Promised != rep.Promised || !rep2.OK || rep2.Accepted.Ballot != rep.Accepted.Ballot || string(rep2.Accepted.Value) != "val" {
		t.Fatalf("reply round trip: %+v %v", rep2, err)
	}
	v := &Versioned{Ballot: Ballot{7, 7}, Value: []byte("dir")}
	v2, err := DecodeVersioned(EncodeVersioned(v))
	if err != nil || v2.Ballot != v.Ballot || string(v2.Value) != "dir" {
		t.Fatalf("versioned round trip: %+v %v", v2, err)
	}
	st := &State{Promised: Ballot{9, 1}, Accepted: *v, Learned: Versioned{Ballot: Ballot{5, 2}, Value: []byte("old")}}
	st2, err := DecodeState(EncodeState(st))
	if err != nil || st2.Promised != st.Promised || st2.Accepted.Ballot != v.Ballot || string(st2.Learned.Value) != "old" {
		t.Fatalf("state round trip: %+v %v", st2, err)
	}
}

func TestRPCTransportEndToEnd(t *testing.T) {
	// Three nodes, each behind a real RPC server on loopback.
	ids := []uint64{1, 2, 3}
	nodes := make([]*Node, 3)
	addrs := make(map[uint64]string)

	// Create nodes first with no transport, then install the RPC
	// transport once all addresses are known.
	for i, id := range ids {
		nodes[i] = NewNode(id, ids, nil)
		srv := rpc.NewServer()
		RegisterServer(srv, nodes[i])
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[id] = addr
	}
	pool := rpc.NewPool(nil)
	defer pool.Close()
	for i := range ids {
		nodes[i].SetTransport(NewRPCTransport(nodes[i], pool, addrs))
	}

	var want []string
	for i := 0; i < 5; i++ {
		want = append(want, fmt.Sprintf("net-%d", i))
		if _, err := nodes[i%3].Change(appendTo(want[i])); err != nil {
			t.Fatalf("change over rpc: %v", err)
		}
	}
	for i, got := range learned(nodes) {
		if got != strings.Join(want, ",") {
			t.Fatalf("node %d learned %q", i+1, got)
		}
	}
	// A pull over the wire adopts nothing older than what a node holds.
	nodes[0].Pull()
	if got := learned(nodes)[0]; got != strings.Join(want, ",") {
		t.Fatalf("after a pull node 1 holds %q", got)
	}
}

func TestStableSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acceptor.log")

	// Acceptor 1 runs with durable storage, promises, accepts and learns.
	stable, err := OpenFileStable(path)
	if err != nil {
		t.Fatal(err)
	}
	n1 := NewNode(1, []uint64{1}, NewLocalTransport())
	n1.SetStable(stable)
	high := Ballot{Round: 5, Node: 2}
	if resp := n1.HandlePrepare(high); !resp.OK {
		t.Fatal("prepare rejected")
	}
	if resp := n1.HandleAccept(&Versioned{Ballot: high, Value: []byte("chosen-v")}); !resp.OK {
		t.Fatal("accept rejected")
	}
	n1.HandleLearn(&Versioned{Ballot: high, Value: []byte("chosen-v")})
	if resp := n1.HandlePrepare(Ballot{Round: 9, Node: 4}); !resp.OK {
		t.Fatal("second prepare rejected")
	}

	// Restart: a fresh node loads the record and must honor old obligations.
	stable2, err := OpenFileStable(path)
	if err != nil {
		t.Fatal(err)
	}
	n2 := NewNode(1, []uint64{1}, NewLocalTransport())
	n2.SetStable(stable2)
	if resp := n2.HandlePrepare(Ballot{Round: 8, Node: 9}); resp.OK {
		t.Fatal("restarted acceptor forgot its promise")
	}
	// A higher prepare must report the accepted value (it survived too).
	resp := n2.HandlePrepare(Ballot{Round: 10, Node: 9})
	if !resp.OK || resp.Accepted.Ballot != high || string(resp.Accepted.Value) != "chosen-v" {
		t.Fatalf("restarted acceptor lost accepted value: %+v", resp)
	}
	// And the learner serves what it learned before the restart.
	if got := n2.Learned(); got.Ballot != high || string(got.Value) != "chosen-v" {
		t.Fatalf("restarted learner holds %+v", got)
	}
}

// TestStableRefusesAppendLog: a file in the append-only log format the
// register replaced is refused at open, with an error naming the file —
// never half-read into a state that forgot promises.
func TestStableRefusesAppendLog(t *testing.T) {
	// Two records of the old format: a promise (kind 1) for slot 0 at
	// ballot 5.2, then an accept (kind 2) of "v" at the same ballot, each
	// a length-prefixed payload and its checksum.
	old := []byte{
		0x04, 0x01, 0x00, 0x05, 0x02, 0x23, 0x68, 0x31, 0x29,
		0x06, 0x02, 0x00, 0x05, 0x02, 0x01, 0x76, 0x9d, 0x3e, 0x35, 0x21,
	}
	for name, data := range map[string][]byte{
		"append log":  old,
		"torn record": EncodeState(&State{Promised: Ballot{Round: 5, Node: 2}})[:20],
		"empty file":  {},
	} {
		path := filepath.Join(t.TempDir(), "acceptor-1.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := OpenFileStable(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: open = %+v, %v; want an error naming %s", name, s, err, path)
		}
	}
}

func TestStableSafetyAcrossAcceptorRestart(t *testing.T) {
	// Choose a value with durable acceptors, restart every acceptor from
	// its file, and verify a later competing proposal steps from the
	// chosen value instead of replacing it.
	dir := t.TempDir()
	trans := NewLocalTransport()
	ids := []uint64{1, 2, 3}
	open := func() []*Node {
		nodes := make([]*Node, len(ids))
		for i, id := range ids {
			st, err := OpenFileStable(fmt.Sprintf("%s/acc%d.log", dir, id))
			if err != nil {
				t.Fatal(err)
			}
			n := NewNode(id, ids, trans)
			n.SetStable(st)
			trans.Register(n) // replaces the previous registration
			nodes[i] = n
		}
		return nodes
	}

	nodes := open()
	if _, err := nodes[0].Change(set("first-decision")); err != nil {
		t.Fatal(err)
	}

	// "Crash" everything and restart from the files.
	nodes = open()
	for i, v := range learned(nodes) {
		if v != "first-decision" {
			t.Fatalf("restarted node %d learned %q", i+1, v)
		}
	}
	chosen, err := nodes[1].Change(appendTo("second"))
	if err != nil {
		t.Fatal(err)
	}
	if string(chosen) != "first-decision,second" {
		t.Fatalf("restart lost the chosen value: %q", chosen)
	}
}
