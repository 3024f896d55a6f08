package paxos

import (
	"testing"

	"lambdastore/internal/wire/wiretest"
)

// FuzzPaxosWire covers the five messages of the RPC transport.
func FuzzPaxosWire(f *testing.F) {
	ballot, value := Ballot{Round: 4, Node: 2}, []byte("command")
	wiretest.Fuzz(f,
		wiretest.Of("prepareReq", &PrepareReq{Slot: 9, Ballot: ballot}, EncodePrepareReq, DecodePrepareReq),
		wiretest.Of("prepareResp", &PrepareResp{OK: true, Promised: ballot, HasAccepted: true, AcceptedBallot: Ballot{Round: 3, Node: 1}, AcceptedValue: value}, EncodePrepareResp, DecodePrepareResp),
		wiretest.Of("acceptReq", &AcceptReq{Slot: 9, Ballot: ballot, Value: value}, EncodeAcceptReq, DecodeAcceptReq),
		wiretest.Of("acceptResp", &AcceptResp{Promised: ballot}, EncodeAcceptResp, DecodeAcceptResp),
		wiretest.Of("learnReq", &LearnReq{Slot: 1 << 35, Value: value}, EncodeLearnReq, DecodeLearnReq),
	)
}
