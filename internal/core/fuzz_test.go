package core

import (
	"testing"

	"lambdastore/internal/vm"
	"lambdastore/internal/wire/wiretest"
)

// FuzzObjectType covers the type record stored under every registered type
// (fields, methods, and the module inside it) and the argument vector of a
// cross-node call.
func FuzzObjectType(f *testing.F) {
	mod := vm.MustAssemble("func get params=0 export\n  push 1\n  ret\nend\nfunc set params=0 export\n  ret\nend")
	typ, err := NewObjectType("Account",
		[]FieldDef{{Name: "name", Kind: FieldValue}, {Name: "followers", Kind: FieldMap}, {Name: "timeline", Kind: FieldList}},
		[]MethodInfo{{Name: "get", ReadOnly: true, Deterministic: true}, {Name: "set"}}, mod)
	if err != nil {
		f.Fatal(err)
	}
	wiretest.Fuzz(f,
		wiretest.Of("objectType", typ, (*ObjectType).Encode, DecodeObjectType),
		wiretest.Of("args", [][]byte{[]byte("alice"), nil, {0xff}}, EncodeArgs, DecodeArgs),
	)
}
