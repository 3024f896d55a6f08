package rpc

import (
	"testing"

	"lambdastore/internal/wire/wiretest"
)

// FuzzRPCFrame covers the message envelope every request and response
// crosses the wire in, through the in-place decoder the reader runs.
func FuzzRPCFrame(f *testing.F) {
	enc := func(m *message) []byte { return m.encode(nil) }
	dec := func(b []byte) (*message, error) {
		m := new(message)
		name, err := m.decode(b)
		m.method = string(name)
		return m, err
	}
	wiretest.Fuzz(f,
		wiretest.Of("request", &message{kind: msgRequest, id: 9, trace: 1 << 40, parent: 77, method: "obj.invoke", body: []byte("args")}, enc, dec),
		wiretest.Of("response", &message{kind: msgResponse, id: 9, errStr: "core: no such object: obj-4"}, enc, dec),
	)
}
