package main

import (
	"lambdastore/internal/cluster"
)

// coreInvoke re-enters the op below the RPC surface, at a replica's object
// runtime: admission, result-cache lookup, and on a miss the transaction,
// the guest execution and its host calls, commit and replication. For a
// write this is a second real write at the primary, which the ledger books
// like any other.
func coreInvoke(n *cluster.Node, in *inputs, o op) ([]byte, error) {
	return n.Runtime().Invoke(o.obj, o.method(), in.args(o))
}
