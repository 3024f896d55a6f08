// Quickstart: define a LambdaObject type, boot a single LambdaStore node,
// and invoke methods on an object through the cluster client.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/vm"
)

// counterSource is the guest implementation of a Counter object: methods
// run inside the storage node, touching only this object's fields through
// the host API.
const counterSource = `
;; read(): current count or 0.
func read params=0
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

;; emit(v): persist v and return it as the result.
func emit params=1 locals=1
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

;; add(delta) -> new total (mutating; committed atomically).
func add params=0 export
  call read
  push 0
  hostcall arg
  unpack.ptr
  load64
  add
  call emit
  ret
end

;; get() -> total (read-only; served from any replica, cacheable).
func get params=0 locals=1 export
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  call read
  store64
  local.get 0
  push 8
  hostcall set_result
  ret
end
`

func main() {
	// 1. Compile the guest module and declare the object type.
	module, err := vm.Assemble(counterSource)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	counterType, err := core.NewObjectType("Counter",
		[]core.FieldDef{{Name: "count", Kind: core.FieldValue}},
		[]core.MethodInfo{
			{Name: "add"},
			{Name: "get"},
		}, module)
	if err != nil {
		log.Fatalf("type: %v", err)
	}

	// 2. Boot one storage node with a client connected to it (in
	// production the nodes are lambdastore daemons on separate machines).
	local, err := cluster.StartLocal(cluster.LocalOptions{Groups: []int{1}})
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer local.Close()
	client := local.Client

	// 3. Deploy the type, create an object.
	if err := client.RegisterType(counterType); err != nil {
		log.Fatalf("register: %v", err)
	}
	if err := client.CreateObject("Counter", 1); err != nil {
		log.Fatalf("create: %v", err)
	}

	// 4. Invoke methods. Each invocation is atomic, isolated and
	// immediately visible to the next one (invocation linearizability).
	for _, delta := range []int64{5, 10, -3} {
		res, err := client.Invoke(1, "add", [][]byte{core.I64Bytes(delta)})
		if err != nil {
			log.Fatalf("add: %v", err)
		}
		fmt.Printf("add(%d) -> %d\n", delta, core.BytesI64(res))
	}
	res, err := client.InvokeRead(1, "get", nil)
	if err != nil {
		log.Fatalf("get: %v", err)
	}
	fmt.Printf("get() -> %d\n", core.BytesI64(res))
}
