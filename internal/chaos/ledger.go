// Package chaos drives a multi-node in-process LambdaStore cluster
// through seeded fault schedules and checks the failover safety
// invariants the paper's re-aggregated design promises (§4.2):
//
//  1. No acknowledged write is ever lost: every append the client saw
//     succeed is present in the surviving ledger after any sequence of
//     primary crashes, link partitions, fsync failures and gray
//     failures. At-least-once semantics make duplicates and
//     unacknowledged-but-applied writes legal; losing an ack is not.
//  2. At most one primary per group per configuration epoch: every
//     coordinator replica applies exactly one effective promotion per
//     primary failure (the Paxos-serialized promote guard is the
//     mechanism; Service.PromoteCounts is the probe).
//  3. Bounded recovery: after a fault heals (or a backup is promoted),
//     the client regains write availability within a bounded number of
//     retries.
//
// The harness builds on the process-global internal/fault plane, so it
// runs the whole cluster — three coordinator replicas and N storage
// nodes — inside one test process and stays -race clean.
package chaos

import (
	"encoding/binary"
	"fmt"

	"lambdastore/internal/core"
	"lambdastore/internal/vm"
)

// ledgerSrc is the guest program for the Ledger object type: an
// append-only log of 8-byte ids in a single value field. A ledger makes
// the no-lost-ack invariant checkable under at-least-once delivery: a
// counter cannot distinguish "lost one, duplicated one", but a ledger
// read returns the exact multiset of applied ids, so the harness can
// assert set-inclusion of every acknowledged id while tolerating
// duplicates from retries and injected frame duplication.
const ledgerSrc = `
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

;; append(id): log = log | id8; returns the id it appended.
func append params=0 locals=4 export
  ;; locals: 0=old_ptr 1=old_len 2=new_ptr 3=id
  str "log"
  hostcall val_get
  dup
  push -1
  eq
  jnz fresh
  dup
  unpack.ptr
  local.set 0
  unpack.len
  local.set 1
  jmp have
fresh:
  pop
  push 0
  local.set 0
  push 0
  local.set 1
have:
  local.get 1
  push 8
  add
  hostcall alloc
  local.set 2
  local.get 2
  local.get 0
  local.get 1
  memcopy
  push 0
  hostcall arg
  unpack.ptr
  load64
  local.set 3
  local.get 2
  local.get 1
  add
  local.get 3
  store64
  str "log"
  local.get 2
  local.get 1
  push 8
  add
  hostcall val_set
  local.get 3
  call result_i64
  ret
end

;; list(): returns the raw log blob (8 bytes per appended id).
func list params=0 export
  str "log"
  hostcall val_get
  dup
  push -1
  eq
  jnz empty
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall set_result
  ret
empty:
  pop
  ret
end
`

// LedgerType assembles the Ledger object type.
func LedgerType() (*core.ObjectType, error) {
	mod, err := vm.Assemble(ledgerSrc)
	if err != nil {
		return nil, fmt.Errorf("chaos: assemble ledger: %w", err)
	}
	return core.NewObjectType("Ledger",
		[]core.FieldDef{{Name: "log", Kind: core.FieldValue}},
		[]core.MethodInfo{
			{Name: "append"},
			{Name: "list"},
		}, mod)
}

// DecodeLog parses a list() result into the applied id sequence.
func DecodeLog(b []byte) []uint64 {
	ids := make([]uint64, 0, len(b)/8)
	for len(b) >= 8 {
		ids = append(ids, binary.LittleEndian.Uint64(b[:8]))
		b = b[8:]
	}
	return ids
}
