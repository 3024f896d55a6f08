package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// txTestRuntime returns a runtime with the Account test type and n funded
// accounts.
func txTestRuntime(t *testing.T, n int, balance int64) *Runtime {
	t.Helper()
	rt, _ := newTestRuntime(t, Options{})
	if err := rt.RegisterType(newAccountType(t)); err != nil {
		t.Fatal(err)
	}
	for id := ObjectID(1); id <= ObjectID(n); id++ {
		if err := rt.CreateObject("Account", id, CallCtx{}); err != nil {
			t.Fatal(err)
		}
		if balance > 0 {
			mustInvoke(t, rt, id, "deposit", I64Bytes(balance))
		}
	}
	return rt
}

func balanceOf(t *testing.T, rt *Runtime, id ObjectID) int64 {
	t.Helper()
	return BytesI64(mustInvoke(t, rt, id, "balance"))
}

func TestTransactionAtomicAcrossObjects(t *testing.T) {
	rt := txTestRuntime(t, 2, 100)
	commitsBefore := rt.metrics.commits.Value()
	// A transactional transfer: withdraw via deposit(-30) on account 1,
	// deposit(+30) on account 2 — both or neither.
	res, err := rt.InvokeTransaction([]TxCall{
		{Object: 1, Method: "deposit", Args: [][]byte{I64Bytes(-30)}},
		{Object: 2, Method: "deposit", Args: [][]byte{I64Bytes(30)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || BytesI64(res[0]) != 70 || BytesI64(res[1]) != 130 {
		t.Fatalf("results = %v, %v", BytesI64(res[0]), BytesI64(res[1]))
	}
	if balanceOf(t, rt, 1) != 70 || balanceOf(t, rt, 2) != 130 {
		t.Fatal("post-transaction balances wrong")
	}
	// Versions of both objects bumped exactly once by the transaction.
	v1, _ := rt.ObjectVersion(1)
	v2, _ := rt.ObjectVersion(2)
	if v1 != 2 || v2 != 2 { // 1 deposit at setup + 1 tx
		t.Fatalf("versions = %d, %d", v1, v2)
	}
	// One write-set, counted once per object it touched.
	if commits := rt.metrics.commits.Value(); commits != commitsBefore+2 {
		t.Fatalf("transaction counted %d commits, want 2", commits-commitsBefore)
	}
}

func TestTransactionAbortsAtomically(t *testing.T) {
	rt := txTestRuntime(t, 2, 100)
	// Second call traps (transfer with insufficient funds at object 2):
	// the first call's write must be discarded too.
	_, err := rt.InvokeTransaction([]TxCall{
		{Object: 1, Method: "deposit", Args: [][]byte{I64Bytes(500)}},
		{Object: 2, Method: "transfer", Args: [][]byte{I64Bytes(1), I64Bytes(1_000_000)}},
	})
	if err == nil {
		t.Fatal("transaction with trapping member succeeded")
	}
	if balanceOf(t, rt, 1) != 100 || balanceOf(t, rt, 2) != 100 {
		t.Fatalf("aborted transaction leaked writes: %d, %d",
			balanceOf(t, rt, 1), balanceOf(t, rt, 2))
	}
}

func TestTransactionMembersSeeEachOthersWrites(t *testing.T) {
	rt := txTestRuntime(t, 1, 0)
	// Two deposits on the same object within one transaction compose.
	res, err := rt.InvokeTransaction([]TxCall{
		{Object: 1, Method: "deposit", Args: [][]byte{I64Bytes(10)}},
		{Object: 1, Method: "deposit", Args: [][]byte{I64Bytes(5)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if BytesI64(res[1]) != 15 {
		t.Fatalf("second call saw %d, want 15", BytesI64(res[1]))
	}
	if balanceOf(t, rt, 1) != 15 {
		t.Fatalf("final balance %d", balanceOf(t, rt, 1))
	}
	// One version bump for the whole transaction.
	if v, _ := rt.ObjectVersion(1); v != 1 {
		t.Fatalf("version = %d", v)
	}
}

func TestTransactionForbidsCrossInvoke(t *testing.T) {
	rt := txTestRuntime(t, 2, 100)
	// transfer() itself performs a cross-object invoke: inside a
	// transaction that is rejected.
	_, err := rt.InvokeTransaction([]TxCall{
		{Object: 1, Method: "transfer", Args: [][]byte{I64Bytes(2), I64Bytes(10)}},
	})
	if err == nil || !strings.Contains(err.Error(), "not allowed inside a transaction") {
		t.Fatalf("err = %v", err)
	}
	if balanceOf(t, rt, 1) != 100 {
		t.Fatal("rejected transaction leaked writes")
	}
}

func TestConcurrentTransactionsSerializable(t *testing.T) {
	// Many concurrent transfers over a small account set via transactions:
	// total money must be conserved and no balance may go negative
	// (each transaction checks implicitly by reading its own consistent
	// snapshot under locks).
	const accounts = 4
	rt := txTestRuntime(t, accounts, 1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				from := ObjectID((w+i)%accounts) + 1
				to := ObjectID((w+i+1)%accounts) + 1
				_, err := rt.InvokeTransaction([]TxCall{
					{Object: from, Method: "deposit", Args: [][]byte{I64Bytes(-7)}},
					{Object: to, Method: "deposit", Args: [][]byte{I64Bytes(7)}},
				})
				if err != nil {
					t.Errorf("tx: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for id := ObjectID(1); id <= accounts; id++ {
		total += balanceOf(t, rt, id)
	}
	if total != accounts*1000 {
		t.Fatalf("money not conserved: %d", total)
	}
}

func TestTransactionNoDeadlockOppositeOrders(t *testing.T) {
	// Transactions declaring {1,2} and {2,1} concurrently: ordered lock
	// acquisition means no deadlock regardless of declaration order.
	rt := txTestRuntime(t, 2, 1000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, b := ObjectID(1), ObjectID(2)
			if w%2 == 1 {
				a, b = b, a
			}
			for i := 0; i < 50; i++ {
				_, err := rt.InvokeTransaction([]TxCall{
					{Object: a, Method: "deposit", Args: [][]byte{I64Bytes(1)}},
					{Object: b, Method: "deposit", Args: [][]byte{I64Bytes(-1)}},
				})
				if err != nil {
					t.Errorf("tx: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := balanceOf(t, rt, 1) + balanceOf(t, rt, 2); got != 2000 {
		t.Fatalf("sum = %d", got)
	}
}

func TestTransactionIsolatedFromPlainInvocations(t *testing.T) {
	rt := txTestRuntime(t, 2, 100)
	var wg sync.WaitGroup
	// Plain deposits race with transactions touching the same objects.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := rt.Invoke(1, "deposit", [][]byte{I64Bytes(1)}); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := rt.InvokeTransaction([]TxCall{
				{Object: 1, Method: "deposit", Args: [][]byte{I64Bytes(2)}},
				{Object: 2, Method: "deposit", Args: [][]byte{I64Bytes(3)}},
			}); err != nil {
				t.Errorf("tx: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := balanceOf(t, rt, 1); got != 100+4*50+2*50 {
		t.Fatalf("account 1 = %d (lost updates between txns and invocations)", got)
	}
	if got := balanceOf(t, rt, 2); got != 100+3*50 {
		t.Fatalf("account 2 = %d", got)
	}
}

func TestTransactionEmptyAndErrors(t *testing.T) {
	rt := txTestRuntime(t, 1, 0)
	if res, err := rt.InvokeTransaction(nil); err != nil || res != nil {
		t.Fatalf("empty tx: %v %v", res, err)
	}
	if _, err := rt.InvokeTransaction([]TxCall{{Object: 99, Method: "deposit"}}); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("missing object err = %v", err)
	}
	if _, err := rt.InvokeTransaction([]TxCall{{Object: 1, Method: "nope"}}); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("missing method err = %v", err)
	}
}

func TestTransactionReadOnlyMembers(t *testing.T) {
	rt := txTestRuntime(t, 2, 50)
	res, err := rt.InvokeTransaction([]TxCall{
		{Object: 1, Method: "balance"},
		{Object: 2, Method: "deposit", Args: [][]byte{I64Bytes(1)}},
		{Object: 1, Method: "balance"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if BytesI64(res[0]) != 50 || BytesI64(res[2]) != 50 {
		t.Fatalf("read members: %d, %d", BytesI64(res[0]), BytesI64(res[2]))
	}
}
