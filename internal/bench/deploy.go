package bench

import (
	"lambdastore/internal/baseline"
	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/workload"
)

// Deployment is one architecture under test with the Retwis type installed.
type Deployment struct {
	Name    string
	Invoker workload.Invoker
	// Create instantiates an object of the Retwis User type.
	Create func(id uint64) error
	// Agg is the aggregated deployment and Dis the disaggregated one; the
	// other is nil. Sweeps read node counters and build clients with their
	// own policies from them.
	Agg *cluster.Local
	Dis *baseline.Local
	// Close tears the deployment down and removes its data.
	Close func()
}

// StartAggregated boots the paper's aggregated configuration on one static
// directory — storage nodes executing methods in place, clients contacting
// the responsible node directly: groups[g] nodes per group, or with none
// given one group of opts.Replicas.
func StartAggregated(opts Options, groups ...int) (*Deployment, error) {
	if len(groups) == 0 {
		groups = []int{opts.Replicas}
	}
	node := opts.Node
	node.ClientOptions = opts.clientOpts()
	l, err := cluster.StartLocal(cluster.LocalOptions{
		Groups:   groups,
		DataRoot: opts.DataRoot,
		Node:     node,
		Client:   cluster.ClientConfig{RPC: opts.clientOpts()},
	})
	if err != nil {
		return nil, err
	}
	if err := l.Client.RegisterType(retwis.MustType()); err != nil {
		l.Close()
		return nil, err
	}
	// The Retwis methods declared read-only go out as replica reads.
	readOnly := make(map[string]bool)
	for _, mi := range retwis.Methods {
		readOnly[mi.Name] = mi.ReadOnly
	}
	invoke := func(object uint64, method string, args [][]byte) ([]byte, error) {
		if readOnly[method] {
			return l.Client.InvokeRead(core.ObjectID(object), method, args)
		}
		return l.Client.Invoke(core.ObjectID(object), method, args)
	}
	return &Deployment{
		Name:    "Aggregated",
		Invoker: workload.InvokerFunc(invoke),
		Create:  func(id uint64) error { return l.Client.CreateObject(retwis.TypeName, core.ObjectID(id)) },
		Agg:     l,
		Close:   l.Close,
	}, nil
}

// StartDisaggregated boots the paper's baseline (baseline.StartLocal) with
// opts.Replicas storage nodes and compute as its compute node's template.
// Clients contact the compute node directly, matching the paper's measured
// configuration.
func StartDisaggregated(opts Options, compute baseline.ComputeOptions) (*Deployment, error) {
	compute.Fuel = opts.Node.Runtime.Fuel
	l, err := baseline.StartLocal(baseline.LocalOptions{
		Replicas: opts.Replicas,
		DataRoot: opts.DataRoot,
		Compute:  compute,
		RPC:      opts.clientOpts(),
	})
	if err != nil {
		return nil, err
	}
	if err := l.RegisterType(retwis.MustType()); err != nil {
		l.Close()
		return nil, err
	}
	client := baseline.NewDirectClient(l.Compute.Addr(), opts.clientOpts())
	return &Deployment{
		Name:    "Disaggregated",
		Invoker: workload.InvokerFunc(client.Invoke),
		Create:  func(id uint64) error { return l.Create(id, retwis.TypeName) },
		Dis:     l,
		Close:   func() { client.Close(); l.Close() },
	}, nil
}
