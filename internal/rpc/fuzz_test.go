package rpc

import (
	"testing"

	"lambdastore/internal/wire/wiretest"
)

// FuzzRPCFrame covers the message envelope every request and response
// crosses the wire in.
func FuzzRPCFrame(f *testing.F) {
	enc := func(m *message) []byte { return m.encode(nil) }
	wiretest.Fuzz(f,
		wiretest.Of("request", &message{kind: msgRequest, id: 9, trace: 1 << 40, parent: 77, method: "obj.invoke", body: []byte("args")}, enc, decodeMessage),
		wiretest.Of("response", &message{kind: msgResponse, id: 9, errStr: "overloaded: queue full"}, enc, decodeMessage),
	)
}
