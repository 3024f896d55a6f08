// Bank demo: the paper's strong-consistency motivation (§2) — "an
// application processing digital payments requires strong consistency to
// ensure a transaction reads an up-to-date account balance and, as a
// result, does not spend more money than is available."
//
// Each account is one LambdaObject. transfer() withdraws under the
// account's exclusive invocation and aborts on overdraft; concurrent
// transfers hammer the same accounts and the demo verifies that money is
// conserved and no balance ever went negative.
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/vm"
)

const accountSource = `
func read_balance params=0
  str "balance"
  hostcall val_get
  dup
  push -1
  eq
  jnz absent
  unpack.ptr
  load64
  ret
absent:
  pop
  push 0
  ret
end

func store_balance params=1 locals=1
  push 8
  hostcall alloc
  local.set 1
  local.get 1
  local.get 0
  store64
  str "balance"
  local.get 1
  push 8
  hostcall val_set
  ret
end

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

;; deposit(amount) -> new balance
func deposit params=0 export
  call read_balance
  push 0
  hostcall arg
  unpack.ptr
  load64
  add
  dup
  call store_balance
  call result_i64
  ret
end

;; balance() -> current balance (read-only)
func balance params=0 export
  call read_balance
  call result_i64
  ret
end

;; transfer(to, amount): withdraw here (aborting the whole invocation on
;; overdraft — nothing commits), then deposit at the target account.
func transfer params=0 locals=3 export
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
  call read_balance
  local.get 1
  sub
  dup
  push 0
  lt_s
  jz ok
  unreachable          ;; insufficient funds: trap, atomically aborting
ok:
  call store_balance
  push 8
  hostcall alloc
  local.set 2
  local.get 2
  local.get 1
  store64
  local.get 2
  push 8
  hostcall call_arg
  local.get 0
  str "deposit"
  hostcall invoke
  pop
  ret
end
`

func main() {
	module, err := vm.Assemble(accountSource)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	accountType, err := core.NewObjectType("Account",
		[]core.FieldDef{{Name: "balance", Kind: core.FieldValue}},
		[]core.MethodInfo{
			{Name: "deposit"},
			{Name: "balance"},
			{Name: "transfer"},
		}, module)
	if err != nil {
		log.Fatalf("type: %v", err)
	}

	local, err := cluster.StartLocal(cluster.LocalOptions{Groups: []int{1}})
	if err != nil {
		log.Fatal(err)
	}
	defer local.Close()
	client := local.Client
	if err := client.RegisterType(accountType); err != nil {
		log.Fatal(err)
	}

	// Open 8 accounts with $1000 each.
	const numAccounts, seed = 8, int64(1000)
	for id := core.ObjectID(1); id <= numAccounts; id++ {
		if err := client.CreateObject("Account", id); err != nil {
			log.Fatal(err)
		}
		if _, err := client.Invoke(id, "deposit", [][]byte{core.I64Bytes(seed)}); err != nil {
			log.Fatal(err)
		}
	}
	total := int64(numAccounts) * seed
	fmt.Printf("opened %d accounts, $%d each ($%d total)\n", numAccounts, seed, total)

	// 16 tellers fire 400 random transfers concurrently; overdrafts abort.
	var wg sync.WaitGroup
	var okOps, aborts int64
	var mu sync.Mutex
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				from := core.ObjectID(rng.Intn(numAccounts) + 1)
				to := core.ObjectID(rng.Intn(numAccounts) + 1)
				if from == to {
					continue
				}
				amount := int64(rng.Intn(1500) + 1) // sometimes exceeds balance
				_, err := client.Invoke(from, "transfer",
					[][]byte{core.I64Bytes(int64(to)), core.I64Bytes(amount)})
				mu.Lock()
				if err != nil {
					aborts++ // overdraft: atomically rolled back
				} else {
					okOps++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("transfers: %d committed, %d aborted (overdrafts)\n", okOps, aborts)

	// Verify: no negative balances, money conserved.
	var sum int64
	for id := core.ObjectID(1); id <= numAccounts; id++ {
		res, err := client.Invoke(id, "balance", nil)
		if err != nil {
			log.Fatal(err)
		}
		b := core.BytesI64(res)
		fmt.Printf("  account %d: $%d\n", id, b)
		if b < 0 {
			log.Fatalf("NEGATIVE BALANCE on account %d — consistency violated!", id)
		}
		sum += b
	}
	if sum != total {
		log.Fatalf("money not conserved: $%d != $%d", sum, total)
	}
	fmt.Printf("total: $%d — conserved, no overdrafts. Strong consistency held.\n", sum)

	// Epilogue: the transactional API (the paper's §7 future work,
	// implemented here). Unlike method-level transfer — where the withdraw
	// commits before the deposit — a transaction commits both sides
	// atomically under locks on both accounts.
	results, err := client.InvokeTransaction([]core.TxCall{
		{Object: 1, Method: "deposit", Args: [][]byte{core.I64Bytes(-100)}},
		{Object: 2, Method: "deposit", Args: [][]byte{core.I64Bytes(100)}},
	})
	if err != nil {
		log.Fatalf("transaction: %v", err)
	}
	fmt.Printf("\ntransactional transfer: account 1 -> $%d, account 2 -> $%d (one atomic commit)\n",
		core.BytesI64(results[0]), core.BytesI64(results[1]))
}
