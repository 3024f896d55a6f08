package core

import (
	"testing"

	"lambdastore/internal/store"
	"lambdastore/internal/vm"
)

// Guest programs used across the core tests. They are deliberately written
// in the real assembly so the tests exercise the full guest/host boundary.

// counterSrc: a Counter object with one value field "count".
//
//	add(delta i64) -> new total    (mutating)
//	get() -> total                 (read-only, deterministic)
//	add_then_trap(delta)           (mutating, traps after writing)
//	spin()                         (infinite loop; fuel test)
const counterSrc = `
;; Counter: value field "count" holding an i64.

;; read_count() -> i64: helper, current count or 0.
func read_count params=0 locals=0
  str "count"
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

;; write_count(v): helper, stores v and sets it as the result.
func write_count params=1 locals=1
  push 8
  hostcall alloc
  local.set 1
  local.get 1
  local.get 0
  store64
  str "count"
  local.get 1
  push 8
  hostcall val_set
  local.get 1
  push 8
  hostcall set_result
  ret
end

func add params=0 locals=1 export
  call read_count
  push 0
  hostcall arg
  unpack.ptr
  load64
  add
  call write_count
  ret
end

func get params=0 locals=1 export
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  call read_count
  store64
  local.get 0
  push 8
  hostcall set_result
  ret
end

func add_then_trap params=0 export
  call read_count
  push 0
  hostcall arg
  unpack.ptr
  load64
  add
  call write_count
  unreachable
end

func spin params=0 export
loop:
  jmp loop
end

func get_time params=0 locals=1 export
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  hostcall time
  store64
  local.get 0
  push 8
  hostcall set_result
  ret
end

;; double(): self-invocation — calls add() on itself with the current count.
func double params=0 locals=2 export
  call read_count
  local.set 0
  ;; stage arg = count
  push 8
  hostcall alloc
  local.set 1
  local.get 1
  local.get 0
  store64
  local.get 1
  push 8
  hostcall call_arg
  ;; invoke(self, "add")
  hostcall self_id
  str "add"
  hostcall invoke
  unpack.ptr
  load64
  call write_result
  ret
end

func write_result params=1 locals=1
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
`

// accountSrc: an Account with a value field "balance" and cross-object
// transfer.
const accountSrc = `
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

func balance params=0 export
  call read_balance
  call result_i64
  ret
end

;; transfer(to_id, amount): withdraw locally, then deposit at target.
func transfer params=0 locals=3 export
  ;; locals: 0=to, 1=amount, 2=scratch ptr
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
  ;; balance -= amount (traps if insufficient)
  call read_balance
  local.get 1
  sub
  dup
  push 0
  lt_s
  jz ok
  unreachable        ;; insufficient funds: abort (nothing commits)
ok:
  call store_balance
  ;; stage amount, invoke deposit at target
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

;; transfer_then_trap(to, amount): like transfer but traps after the nested
;; call returns — §3.1: the withdraw (committed before the nested call) and
;; the deposit both survive.
func transfer_then_trap params=0 locals=3 export
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
  unreachable
end

;; fanout_deposit(n, base, amount): parallel deposits to objects
;; base..base+n-1, then waits for all.
func fanout_deposit params=0 locals=5 export
  ;; locals: 0=n, 1=base, 2=amount, 3=i, 4=scratch
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
  unpack.ptr
  load64
  local.set 2
  push 0
  local.set 3
start_loop:
  local.get 3
  local.get 0
  ge_s
  jnz wait_loop_init
  ;; stage amount
  push 8
  hostcall alloc
  local.set 4
  local.get 4
  local.get 2
  store64
  local.get 4
  push 8
  hostcall call_arg
  ;; invoke_start(base+i, "deposit")
  local.get 1
  local.get 3
  add
  str "deposit"
  hostcall invoke_start
  pop
  local.get 3
  push 1
  add
  local.set 3
  jmp start_loop
wait_loop_init:
  push 0
  local.set 3
wait_loop:
  local.get 3
  local.get 0
  ge_s
  jnz done
  local.get 3
  hostcall invoke_wait
  pop
  local.get 3
  push 1
  add
  local.set 3
  jmp wait_loop
done:
  ret
end
`

// notebookSrc exercises list and map fields.
const notebookSrc = `
;; Notebook: list field "entries", map field "tags".

func append_entry params=0 locals=1 export
  str "entries"
  push 0
  hostcall arg
  unpack.len
  local.set 0
  push 0
  hostcall arg
  unpack.ptr
  local.get 0
  hostcall list_push
  ret
end

func entry_count params=0 locals=1 export
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  str "entries"
  hostcall list_len
  store64
  local.get 0
  push 8
  hostcall set_result
  ret
end

;; entry_at(i) -> bytes
func entry_at params=0 locals=2 export
  str "entries"
  push 0
  hostcall arg
  unpack.ptr
  load64
  hostcall list_get
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
  unreachable
end

;; tag_set(key, value)
func tag_set params=0 locals=4 export
  ;; locals: 0=kptr 1=klen 2=vptr 3=vlen
  push 0
  hostcall arg
  dup
  unpack.ptr
  local.set 0
  unpack.len
  local.set 1
  push 1
  hostcall arg
  dup
  unpack.ptr
  local.set 2
  unpack.len
  local.set 3
  str "tags"
  local.get 0
  local.get 1
  local.get 2
  local.get 3
  hostcall map_set
  ret
end

;; tag_get(key) -> value (empty result if missing)
func tag_get params=0 locals=2 export
  push 0
  hostcall arg
  dup
  unpack.ptr
  local.set 0
  unpack.len
  local.set 1
  str "tags"
  local.get 0
  local.get 1
  hostcall map_get
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

;; tag_del(key)
func tag_del params=0 locals=2 export
  push 0
  hostcall arg
  dup
  unpack.ptr
  local.set 0
  unpack.len
  local.set 1
  str "tags"
  local.get 0
  local.get 1
  hostcall map_del
  ret
end

;; tag_count() -> i64
func tag_count params=0 locals=1 export
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  str "tags"
  hostcall map_count
  store64
  local.get 0
  push 8
  hostcall set_result
  ret
end
`

// newCounterType compiles the Counter test type.
func newCounterType(t *testing.T) *ObjectType {
	t.Helper()
	mod, err := vm.Assemble(counterSrc)
	if err != nil {
		t.Fatalf("assemble counter: %v", err)
	}
	typ, err := NewObjectType("Counter",
		[]FieldDef{{Name: "count", Kind: FieldValue}},
		[]MethodInfo{
			{Name: "add"},
			{Name: "get"},
			{Name: "add_then_trap"},
			{Name: "spin"},
			{Name: "get_time"},
			{Name: "double"},
		}, mod)
	if err != nil {
		t.Fatalf("counter type: %v", err)
	}
	return typ
}

// newAccountType compiles the Account test type.
func newAccountType(t *testing.T) *ObjectType {
	t.Helper()
	mod, err := vm.Assemble(accountSrc)
	if err != nil {
		t.Fatalf("assemble account: %v", err)
	}
	typ, err := NewObjectType("Account",
		[]FieldDef{{Name: "balance", Kind: FieldValue}},
		[]MethodInfo{
			{Name: "deposit"},
			{Name: "balance"},
			{Name: "transfer"},
			{Name: "transfer_then_trap"},
			{Name: "fanout_deposit"},
		}, mod)
	if err != nil {
		t.Fatalf("account type: %v", err)
	}
	return typ
}

// newNotebookType compiles the Notebook test type.
func newNotebookType(t *testing.T) *ObjectType {
	t.Helper()
	mod, err := vm.Assemble(notebookSrc)
	if err != nil {
		t.Fatalf("assemble notebook: %v", err)
	}
	typ, err := NewObjectType("Notebook",
		[]FieldDef{
			{Name: "entries", Kind: FieldList},
			{Name: "tags", Kind: FieldMap},
		},
		[]MethodInfo{
			{Name: "append_entry"},
			{Name: "entry_count"},
			{Name: "entry_at"},
			{Name: "tag_set"},
			{Name: "tag_get"},
			{Name: "tag_del"},
			{Name: "tag_count"},
		}, mod)
	if err != nil {
		t.Fatalf("notebook type: %v", err)
	}
	return typ
}

// newTestRuntime opens a runtime over a fresh temp store.
func newTestRuntime(t *testing.T, opts Options) (*Runtime, *store.DB) {
	t.Helper()
	dir := t.TempDir()
	db, err := store.Open(dir, nil)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	rt, err := NewRuntime(db, opts)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return rt, db
}
