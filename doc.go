// Package lambdastore is a from-scratch reproduction of "LambdaObjects:
// Re-Aggregating Storage and Execution for Cloud Computing" (Mast,
// Arpaci-Dusseau, Arpaci-Dusseau — HotStorage '22).
//
// LambdaObjects is a serverless abstraction in which data and compute are
// co-located: application state is encapsulated in objects, each carrying
// methods that execute directly at the storage node holding the object.
// This repository implements the complete system described by the paper —
// the object model with invocation linearizability (internal/core), the
// metered isolation runtime standing in for WebAssembly (internal/vm), an
// LSM-tree storage engine standing in for LevelDB (internal/store),
// primary-backup replication (internal/replication), a Paxos-replicated
// coordinator (internal/paxos, internal/coordinator), microsharding with
// live object migration (internal/shard), consistent function-result
// caching (internal/cache), the full aggregated node and client
// (internal/cluster), the disaggregated serverless baseline the paper
// compares against (internal/baseline), and the Retwis evaluation workload
// generator (internal/retwis, internal/workload).
//
// cmd/retwis-bench regenerates the paper's Figure 1, Figure 2 and Table 1
// and sweeps an injected network delay; see DESIGN.md for the system
// inventory and EXPERIMENTS.md for measured results.
package lambdastore
