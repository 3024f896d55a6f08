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
	"slices"
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

// MethodInfo names one public method of an object type. Only the name is
// declared: what the method may do is derived from its module when the type
// is accepted (init) and never serialized.
type MethodInfo struct {
	Name    string
	effects Effects
}

// ReadOnly reports that the method can reach no host import that writes or
// nests a call: it takes a shared admission, never commits, and may run at a
// leased backup (paper §4.2.1).
func (m *MethodInfo) ReadOnly() bool { return m.effects.ReadOnly() }

// Cacheable reports that the method's result is a function of its object's
// committed version and its arguments alone (§4.2.2).
func (m *MethodInfo) Cacheable() bool { return m.effects.Cacheable() }

// Effects are what a host import — and so a method that can reach it — may
// do beyond computing on its arguments and its object's state. hostapi.go
// classes every import where it registers it.
type Effects uint8

const (
	// Writes buffers a write to the object, or nests a call that may.
	Writes Effects = 1 << iota
	// Nondet answers from the clock or randomness.
	Nondet

	pure Effects = 0
)

// ReadOnly reports that e cannot write.
func (e Effects) ReadOnly() bool { return e&Writes == 0 }

// Cacheable reports that e neither writes nor answers nondeterministically.
func (e Effects) Cacheable() bool { return e == pure }

// String is e as tooling prints it: "read, cacheable", "read, not
// cacheable" or "write, not cacheable".
func (e Effects) String() string {
	switch {
	case e.Cacheable():
		return "read, cacheable"
	case e.ReadOnly():
		return "read, not cacheable"
	}
	return "write, not cacheable"
}

// MethodEffects is the union of the effects of every host import the
// module's function name can reach — the summary ObjectType.init derives for
// each method, conservative because every static call site counts.
func MethodEffects(mod *vm.Module, name string) Effects {
	imports, _ := mod.ReachableImports(name)
	fx := pure
	for imp := range imports {
		fx |= hostEffects[imp]
	}
	return fx
}

// Errors of the object model.
var (
	ErrNoSuchType   = errors.New("core: no such object type")
	ErrNoSuchObject = errors.New("core: no such object")
	ErrNoSuchMethod = errors.New("core: no such method")
	ErrNoSuchField  = errors.New("core: no such field")
	ErrWrongKind    = errors.New("core: field kind mismatch")
	ErrExists       = errors.New("core: already exists")
	ErrBadType      = errors.New("core: invalid object type")
	ErrNotFound     = errors.New("core: not found")
)

// MovedError is what an object whose header holds a move's mark answers
// with here: a move to Group froze it. Whether that move committed is the
// directory's to say; a mark the object's home finds is a move that did
// not, and the home takes it back.
type MovedError struct {
	Object ObjectID
	Group  uint64
}

func (e *MovedError) Error() string {
	return fmt.Sprintf("core: object %s moved to group %d", e.Object, e.Group)
}

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

// NewObjectType validates and indexes a type definition. Every named method
// must be an exported, parameterless function of the module, and the module
// must link against the host API. The type keeps its own copy of methods,
// which init fills in.
func NewObjectType(name string, fields []FieldDef, methods []MethodInfo, module *vm.Module) (*ObjectType, error) {
	t := &ObjectType{Name: name, Fields: fields, Methods: slices.Clone(methods), Module: module}
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
		m.effects = MethodEffects(t.Module, m.Name)
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
	}
	b = wire.AppendBytes(b, t.Module.Encode())
	return b
}

// DecodeObjectType parses and validates a serialized type.
func DecodeObjectType(data []byte) (*ObjectType, error) {
	r := wire.NewReader(data)
	t := &ObjectType{Name: r.Str()}
	// A field is at least a name length and its kind, a method a name length.
	t.Fields = make([]FieldDef, r.Count(2))
	for i := range t.Fields {
		f := &t.Fields[i]
		f.Name, f.Kind = r.Str(), FieldKind(r.Byte())
		if f.Kind > FieldList {
			return nil, fmt.Errorf("%w: unknown field kind %d", ErrBadType, f.Kind)
		}
	}
	t.Methods = make([]MethodInfo, r.Count(1))
	for i := range t.Methods {
		t.Methods[i].Name = r.Str()
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
