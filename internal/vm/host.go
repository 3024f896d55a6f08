package vm

import (
	"errors"
	"fmt"
)

// HostFunc is one function the host exposes to guest code. Arguments are
// popped from the guest value stack (last argument on top); a single result
// may be pushed back. Byte-string arguments follow the (ptr, len) convention
// against guest linear memory, with the host using Instance.MemView (in
// place, for bytes it consumes before returning), Instance.MemRead (a copy,
// for bytes it retains) and Instance.MemWrite, so guests never see host
// pointers.
type HostFunc struct {
	Name   string
	NArgs  int
	HasRet bool
	Cost   int64 // additional fuel charged per call
	Fn     func(inst *Instance, args []int64) (int64, error)
}

// HostTable resolves import names at link time.
type HostTable struct {
	funcs map[string]*HostFunc
	gen   uint64 // bumped by Register: a module caches its resolution per table and generation
}

// NewHostTable returns an empty table.
func NewHostTable() *HostTable {
	return &HostTable{funcs: make(map[string]*HostFunc)}
}

// Register adds fn to the table, replacing any previous function with the
// same name.
func (t *HostTable) Register(fn HostFunc) {
	if fn.Cost <= 0 {
		fn.Cost = 16
	}
	f := fn
	t.funcs[fn.Name] = &f
	t.gen++
}

// Lookup returns the named host function.
func (t *HostTable) Lookup(name string) (*HostFunc, bool) {
	f, ok := t.funcs[name]
	return f, ok
}

// resolve maps a module's import list to concrete host functions. A nil
// table resolves only an empty list.
func (t *HostTable) resolve(imports []string) ([]*HostFunc, error) {
	out := make([]*HostFunc, len(imports))
	for i, name := range imports {
		if t != nil {
			out[i] = t.funcs[name]
		}
		if out[i] == nil {
			return nil, fmt.Errorf("vm: unresolved import %q", name)
		}
	}
	return out, nil
}

// HostError wraps an error returned by a host function so callers can
// distinguish host-side failures (e.g. storage errors) from guest traps.
type HostError struct{ Err error }

func (e *HostError) Error() string { return "vm: host: " + e.Err.Error() }
func (e *HostError) Unwrap() error { return e.Err }

// AsHostError extracts a HostError from a trap chain.
func AsHostError(err error) (*HostError, bool) {
	var he *HostError
	if errors.As(err, &he) {
		return he, true
	}
	return nil, false
}
