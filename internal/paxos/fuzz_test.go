package paxos

import (
	"testing"

	"lambdastore/internal/wire/wiretest"
)

// FuzzPaxosWire covers the RPC transport's messages — the prepare's
// ballot, the acceptor's reply, the accept, the learn and the pull's
// answer — and the stable state record a node restarts from.
func FuzzPaxosWire(f *testing.F) {
	ballot := Ballot{Round: 4, Node: 2}
	value := Versioned{Ballot: Ballot{Round: 3, Node: 1}, Value: []byte("directory")}
	wiretest.Fuzz(f,
		wiretest.Of("prepare", ballot, EncodeBallot, DecodeBallot),
		wiretest.Of("promise", &Reply{OK: true, Promised: ballot, Accepted: value}, EncodeReply, DecodeReply),
		wiretest.Of("accept", &Versioned{Ballot: ballot, Value: []byte("directory")}, EncodeVersioned, DecodeVersioned),
		wiretest.Of("acceptReply", &Reply{Promised: ballot}, EncodeReply, DecodeReply),
		wiretest.Of("learn", &Versioned{Ballot: Ballot{Round: 1 << 35, Node: 3}, Value: []byte("directory")}, EncodeVersioned, DecodeVersioned),
		wiretest.Of("pulled", &Versioned{}, EncodeVersioned, DecodeVersioned),
		wiretest.Of("stableState", &State{Promised: ballot, Accepted: value, Learned: value}, EncodeState, DecodeState),
	)
}
