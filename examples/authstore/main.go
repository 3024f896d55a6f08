// Authstore demo: the paper's §3 motivating component — "LambdaObjects are
// intended to implement a small piece of functionality, e.g., a user
// authentication mechanism, that is part of a larger application".
//
// One AuthService object encapsulates the credential map and the session
// map; register/login/validate/logout are its methods. Because each
// invocation is atomic and isolated, a password change and a login can
// never interleave halfway.
//
//	go run ./examples/authstore
package main

import (
	"fmt"
	"log"

	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/vm"
)

const authSource = `
;; register(user, secret): fails (traps) if the user already exists.
func register params=0 locals=4 export
  ;; locals: 0=uptr 1=ulen 2=sptr 3=slen
  push 0
  hostcall arg
  dup
  unpack.ptr
  local.set 0
  unpack.len
  local.set 1
  ;; reject duplicates
  str "credentials"
  local.get 0
  local.get 1
  hostcall map_get
  push -1
  eq
  jz duplicate
  push 1
  hostcall arg
  dup
  unpack.ptr
  local.set 2
  unpack.len
  local.set 3
  str "credentials"
  local.get 0
  local.get 1
  local.get 2
  local.get 3
  hostcall map_set
  ret
duplicate:
  unreachable
end

;; login(user, secret) -> token; traps on bad credentials. The token is
;; derived from the runtime RNG and recorded in the sessions map.
func login params=0 locals=8 export
  ;; locals: 0=uptr 1=ulen 2=sptr 3=slen
  ;;         4=storedptr 5=storedlen 6=i 7=tokenptr
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
  str "credentials"
  local.get 0
  local.get 1
  hostcall map_get
  dup
  push -1
  eq
  jnz bad
  dup
  unpack.ptr
  local.set 4
  unpack.len
  local.set 5
  ;; constant-shape comparison: length first, then bytes
  local.get 5
  local.get 3
  ne
  jnz reject
  push 0
  local.set 6
cmp_loop:
  local.get 6
  local.get 3
  ge_s
  jnz issue
  local.get 4
  local.get 6
  add
  load8_u
  local.get 2
  local.get 6
  add
  load8_u
  ne
  jnz reject
  local.get 6
  push 1
  add
  local.set 6
  jmp cmp_loop
bad:
  pop
reject:
  unreachable
issue:
  ;; token = 16 random bytes
  push 16
  hostcall alloc
  local.set 7
  local.get 7
  hostcall rand
  store64
  local.get 7
  push 8
  add
  hostcall rand
  store64
  ;; sessions[token] = user
  str "sessions"
  local.get 7
  push 16
  local.get 0
  local.get 1
  hostcall map_set
  local.get 7
  push 16
  hostcall set_result
  ret
end

;; validate(token) -> user; empty result if the session is unknown.
func validate params=0 export
  str "sessions"
  push 0
  hostcall arg
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall map_get
  dup
  push -1
  eq
  jnz unknown
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall set_result
  ret
unknown:
  pop
  ret
end

;; logout(token)
func logout params=0 export
  str "sessions"
  push 0
  hostcall arg
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall map_del
  ret
end

;; session_count() -> number of live sessions
func session_count params=0 locals=1 export
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  str "sessions"
  hostcall map_count
  store64
  local.get 0
  push 8
  hostcall set_result
  ret
end
`

func main() {
	module, err := vm.Assemble(authSource)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	authType, err := core.NewObjectType("AuthService",
		[]core.FieldDef{
			{Name: "credentials", Kind: core.FieldMap},
			{Name: "sessions", Kind: core.FieldMap},
		},
		[]core.MethodInfo{
			{Name: "register"},
			{Name: "login"},
			{Name: "validate", ReadOnly: true, Deterministic: true},
			{Name: "logout"},
			{Name: "session_count", ReadOnly: true},
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
	if err := client.RegisterType(authType); err != nil {
		log.Fatal(err)
	}
	const svc = core.ObjectID(1)
	if err := client.CreateObject("AuthService", svc); err != nil {
		log.Fatal(err)
	}

	invoke := func(what, method string, args ...[]byte) []byte {
		res, err := client.Invoke(svc, method, args)
		if err != nil {
			log.Fatalf("%s: %v", what, err)
		}
		return res
	}

	// Register two users; duplicate registration is rejected atomically.
	invoke("register alice", "register", []byte("alice"), []byte("s3cret"))
	invoke("register bob", "register", []byte("bob"), []byte("hunter2"))
	if _, err := client.Invoke(svc, "register", [][]byte{[]byte("alice"), []byte("other")}); err == nil {
		log.Fatal("duplicate registration succeeded")
	}
	fmt.Println("registered alice and bob; duplicate rejected")

	// Wrong password fails; right password yields a session token.
	if _, err := client.Invoke(svc, "login", [][]byte{[]byte("alice"), []byte("wrong")}); err == nil {
		log.Fatal("login with wrong password succeeded")
	}
	token := invoke("login alice", "login", []byte("alice"), []byte("s3cret"))
	fmt.Printf("alice logged in, token %x\n", token)

	// Validate, count, logout.
	user := invoke("validate", "validate", token)
	fmt.Printf("token belongs to %q\n", user)
	n := invoke("session_count", "session_count")
	fmt.Printf("live sessions: %d\n", core.BytesI64(n))
	invoke("logout", "logout", token)
	if res := invoke("validate after logout", "validate", token); len(res) != 0 {
		log.Fatal("token survived logout")
	}
	fmt.Println("token invalidated after logout")
}
