// Package core implements the LambdaObjects programming model — the
// paper's primary contribution. Data is encapsulated into objects
// instantiated from object types; each type carries a set of fields
// (opaque values, keyed collections, or lists) and a set of methods
// compiled to untrusted bytecode (see internal/vm). Methods may only
// access their own object's fields through a minimal key-value host API,
// but may invoke methods of other objects, composing application logic as
// a graph of function calls.
//
// The Runtime in this package executes invocations with *invocation
// linearizability* (paper §3.1): each invocation's writes are buffered and
// committed atomically at the end (atomicity), mutating invocations of an
// object are serialized by the scheduler while its partial writes stay
// invisible (isolation), and a successful invocation's writes are visible
// to every subsequently issued invocation (real-time). Guarantees
// deliberately do not span nested calls: invoking another function first
// commits the caller's writes so far.
package core

import (
	"errors"
	"fmt"
	"strings"

	"lambdastore/internal/vm"
	"lambdastore/internal/wire"
)

// ObjectID identifies an object. IDs also define microshard boundaries: an
// object's entire state is one contiguous key range (see keys.go), so it
// can be migrated on its own.
type ObjectID uint64

func (id ObjectID) String() string { return fmt.Sprintf("obj-%d", uint64(id)) }

// FieldKind enumerates the storage shapes a field can take (paper §3:
// "fields, which are either a single opaque piece of data or a collection
// of data entries indexed by a key").
type FieldKind uint8

const (
	// FieldValue is a single opaque byte string.
	FieldValue FieldKind = iota
	// FieldMap is a collection of byte strings indexed by a byte-string key.
	FieldMap
	// FieldList is an append-ordered collection indexed by position.
	FieldList
)

func (k FieldKind) String() string {
	switch k {
	case FieldValue:
		return "value"
	case FieldMap:
		return "map"
	case FieldList:
		return "list"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FieldDef declares one field of an object type.
type FieldDef struct {
	Name string
	Kind FieldKind
}

// MethodInfo declares one public method of an object type.
type MethodInfo struct {
	Name string
	// ReadOnly methods never mutate the object; they take a shared
	// scheduler admission and may execute at backup replicas.
	ReadOnly bool
	// Deterministic read-only methods are eligible for consistent result
	// caching (§4.2.2). Methods that consult the clock, randomness, or
	// other objects are automatically excluded at run time regardless of
	// this flag.
	Deterministic bool

	// inferredReadOnly is computed at validation time (never serialized;
	// init recomputes it on decode): the method's reachable call graph
	// contains no mutating host import and no cross-object invocation,
	// so it provably never touches the write buffer even though its
	// author did not declare it ReadOnly. Such methods are routable to
	// leased backup replicas exactly like declared read-only ones.
	inferredReadOnly bool
}

// RoutableReadOnly reports whether the method may execute at a backup
// replica: declared read-only, or proven read-only by module analysis.
func (m *MethodInfo) RoutableReadOnly() bool { return m.ReadOnly || m.inferredReadOnly }

// mutatingImports are the host functions that touch the write buffer.
// invoke/invoke_start are excluded from read-only inference too: a
// cross-object call may mutate the callee and must run where forwarding
// is safe (the scheduler also commits the caller before nested calls).
var mutatingImports = map[string]bool{
	"val_set":      true,
	"val_del":      true,
	"map_set":      true,
	"map_del":      true,
	"list_push":    true,
	"invoke":       true,
	"invoke_start": true,
	"invoke_wait":  true,
	"call_arg":     true,
}

// Errors of the object model.
var (
	ErrNoSuchType     = errors.New("core: no such object type")
	ErrNoSuchObject   = errors.New("core: no such object")
	ErrNoSuchMethod   = errors.New("core: no such method")
	ErrNoSuchField    = errors.New("core: no such field")
	ErrWrongKind      = errors.New("core: field kind mismatch")
	ErrExists         = errors.New("core: already exists")
	ErrReadOnly       = errors.New("core: mutation from read-only method")
	ErrBadType        = errors.New("core: invalid object type")
	ErrNotFound       = errors.New("core: not found")
	ErrInvalidUpgrade = errors.New("core: self-invocation cannot upgrade read-only to mutating")
)

// ObjectType bundles fields and methods; objects are instantiated from it
// (paper §3: "object types"). The zero value is not usable; construct with
// NewObjectType or DecodeObjectType.
type ObjectType struct {
	Name    string
	Fields  []FieldDef
	Methods []MethodInfo
	Module  *vm.Module

	fieldIdx  map[string]*FieldDef
	methodIdx map[string]*MethodInfo
}

// NewObjectType validates and indexes a type definition. Every declared
// method must be an exported, parameterless function of the module, and the
// module must link against the host API.
func NewObjectType(name string, fields []FieldDef, methods []MethodInfo, module *vm.Module) (*ObjectType, error) {
	t := &ObjectType{Name: name, Fields: fields, Methods: methods, Module: module}
	if err := t.init(); err != nil {
		return nil, err
	}
	return t, nil
}

// init builds the lookup indexes and validates invariants.
func (t *ObjectType) init() error {
	if t.Name == "" {
		return fmt.Errorf("%w: empty type name", ErrBadType)
	}
	if strings.ContainsRune(t.Name, 0) {
		return fmt.Errorf("%w: type name contains NUL", ErrBadType)
	}
	if t.Module == nil {
		return fmt.Errorf("%w: type %q has no module", ErrBadType, t.Name)
	}
	t.fieldIdx = make(map[string]*FieldDef, len(t.Fields))
	for i := range t.Fields {
		f := &t.Fields[i]
		if f.Name == "" || strings.ContainsRune(f.Name, 0) {
			return fmt.Errorf("%w: bad field name %q", ErrBadType, f.Name)
		}
		if _, dup := t.fieldIdx[f.Name]; dup {
			return fmt.Errorf("%w: duplicate field %q", ErrBadType, f.Name)
		}
		t.fieldIdx[f.Name] = f
	}
	t.methodIdx = make(map[string]*MethodInfo, len(t.Methods))
	for i := range t.Methods {
		m := &t.Methods[i]
		if _, dup := t.methodIdx[m.Name]; dup {
			return fmt.Errorf("%w: duplicate method %q", ErrBadType, m.Name)
		}
		if !t.Module.HasExport(m.Name) {
			return fmt.Errorf("%w: method %q is not an exported module function", ErrBadType, m.Name)
		}
		// A method receives its arguments through the host API (arg), and
		// the pool calls it with none on the stack.
		if np := t.Module.Funcs[t.Module.FuncIndex(m.Name)].NumParams; np != 0 {
			return fmt.Errorf("%w: type %q: method %q declares %d stack parameters; methods are called with none", ErrBadType, t.Name, m.Name, np)
		}
		// Classify once at validation time: a method none of whose
		// reachable host calls can mutate is read-only in fact, whatever
		// its declaration says. The flag is advisory for routing only —
		// execution still enforces ReadOnly via the write-buffer guard.
		if !m.ReadOnly {
			if imports, ok := t.Module.ReachableImports(m.Name); ok {
				mutates := false
				for imp := range imports {
					if mutatingImports[imp] {
						mutates = true
						break
					}
				}
				m.inferredReadOnly = !mutates
			}
		}
		t.methodIdx[m.Name] = m
	}
	// Link here, where a type is accepted (registered, decoded from a peer,
	// loaded from the store), so a module that imports what the host API
	// lacks or whose stack cannot be typed is refused before it is persisted
	// and replicated, not at its first invocation.
	if err := LinkModule(t.Module); err != nil {
		return fmt.Errorf("%w: type %q: %w", ErrBadType, t.Name, err)
	}
	return nil
}

// LinkModule links mod against the host API object methods run with, the
// check every type's module must pass; tooling that produces modules
// (lambdactl asm) runs it so the author meets a stack-typing or import
// error before any cluster does.
func LinkModule(mod *vm.Module) error { return mod.Link(hostTable) }

// Method returns the named method declaration.
func (t *ObjectType) Method(name string) (*MethodInfo, bool) {
	m, ok := t.methodIdx[name]
	return m, ok
}

// Encode serializes the type (the representation persisted in the store
// and shipped between nodes).
func (t *ObjectType) Encode() []byte {
	var b []byte
	b = wire.AppendString(b, t.Name)
	b = wire.AppendUvarint(b, uint64(len(t.Fields)))
	for _, f := range t.Fields {
		b = wire.AppendString(b, f.Name)
		b = append(b, byte(f.Kind))
	}
	b = wire.AppendUvarint(b, uint64(len(t.Methods)))
	for _, m := range t.Methods {
		b = wire.AppendString(b, m.Name)
		var flags byte
		if m.ReadOnly {
			flags |= 1
		}
		if m.Deterministic {
			flags |= 2
		}
		b = append(b, flags)
	}
	b = wire.AppendBytes(b, t.Module.Encode())
	return b
}

// DecodeObjectType parses and validates a serialized type.
func DecodeObjectType(data []byte) (*ObjectType, error) {
	r := wire.NewReader(data)
	t := &ObjectType{Name: r.Str()}
	// A field or a method is at least a name length and one byte.
	t.Fields = make([]FieldDef, r.Count(2))
	for i := range t.Fields {
		f := &t.Fields[i]
		f.Name, f.Kind = r.Str(), FieldKind(r.Byte())
		if f.Kind > FieldList {
			return nil, fmt.Errorf("%w: unknown field kind %d", ErrBadType, f.Kind)
		}
	}
	t.Methods = make([]MethodInfo, r.Count(2))
	for i := range t.Methods {
		m := &t.Methods[i]
		m.Name = r.Str()
		flags := r.Byte()
		m.ReadOnly, m.Deterministic = flags&1 != 0, flags&2 != 0
	}
	modBytes := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadType, err)
	}
	var err error
	if t.Module, err = vm.Decode(modBytes); err != nil {
		return nil, fmt.Errorf("%w: type %q: %w", ErrBadType, t.Name, err)
	}
	if err := t.init(); err != nil {
		return nil, err
	}
	return t, nil
}
