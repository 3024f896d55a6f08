package baseline

import (
	"fmt"
	"os"
	"path/filepath"

	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
)

// LocalOptions describes the disaggregated baseline stood up in one process
// on loopback — the deployment the aggregated design is compared against, so
// everything but the architecture is the aggregated deployment's.
type LocalOptions struct {
	// Replicas is the storage group's size: one primary shipping every
	// write to Replicas-1 backups.
	Replicas int
	// DataRoot is where the deployment's own scratch directory (storage
	// data and the request log, removed by Close) is created; "" is the
	// system temp directory.
	DataRoot string
	// Compute is the compute node's configuration (Addr, Storage and
	// ClientOptions filled in). A ColdStartPenalty here makes the
	// deployment the cold one.
	Compute ComputeOptions
	// RPC tunes every component's outbound connections (latency injection).
	RPC *rpc.ClientOptions
}

// Local is a running LocalOptions. Whether a job goes through the request
// log is the caller's choice of client: NewClient(l.LB.Addr()) logs and
// dispatches it, NewDirectClient(l.Compute.Addr()) contacts the executing
// node the way the paper's measured configuration does (nested invocations
// go through the LB either way).
type Local struct {
	Primary *StorageNode
	Backups []*StorageNode
	Compute *ComputeNode
	LB      *LoadBalancer

	pool *rpc.Pool
	root string
}

// StartLocal boots the storage group, one compute node executing against
// its primary, and the load balancer whose durable request log carries
// nested invocations.
func StartLocal(opts LocalOptions) (_ *Local, err error) {
	l := &Local{pool: rpc.NewPool(opts.RPC)}
	defer func() {
		if err != nil {
			l.Close()
		}
	}()
	if l.root, err = os.MkdirTemp(opts.DataRoot, "lambdastore-baseline-*"); err != nil {
		return nil, err
	}
	var backups []string
	for i := 1; i < opts.Replicas; i++ {
		b, err := StartStorage(StorageOptions{
			Addr:          "127.0.0.1:0",
			DataDir:       filepath.Join(l.root, fmt.Sprintf("backup%d", i)),
			ClientOptions: opts.RPC,
		})
		if err != nil {
			return nil, err
		}
		l.Backups = append(l.Backups, b)
		backups = append(backups, b.Addr())
	}
	l.Primary, err = StartStorage(StorageOptions{
		Addr:          "127.0.0.1:0",
		DataDir:       filepath.Join(l.root, "primary"),
		Backups:       backups,
		ClientOptions: opts.RPC,
	})
	if err != nil {
		return nil, err
	}
	compute := opts.Compute
	compute.Addr, compute.Storage, compute.ClientOptions = "127.0.0.1:0", l.Primary.Addr(), opts.RPC
	if l.Compute, err = StartCompute(compute); err != nil {
		return nil, err
	}
	l.LB, err = StartLB(LBOptions{
		Addr:          "127.0.0.1:0",
		LogDir:        filepath.Join(l.root, "lblog"),
		Computes:      []string{l.Compute.Addr()},
		ClientOptions: opts.RPC,
	}, nil)
	if err != nil {
		return nil, err
	}
	l.Compute.SetLoadBalancer(l.LB.Addr())
	return l, nil
}

// RegisterType installs an object type at the storage layer, where compute
// nodes fetch it from.
func (l *Local) RegisterType(typ *core.ObjectType) error {
	_, err := l.pool.Call(l.Primary.Addr(), MethodRegType, typ.Encode())
	return err
}

// Create instantiates an object of a registered type.
func (l *Local) Create(id uint64, typeName string) error {
	_, err := l.pool.Call(l.Primary.Addr(), MethodCreate, EncodeCreateReq(id, typeName))
	return err
}

// Close stops every component and removes the scratch directory. It is
// safe on a partly started Local.
func (l *Local) Close() {
	if l.LB != nil {
		l.LB.Close()
	}
	if l.Compute != nil {
		l.Compute.Close()
	}
	if l.Primary != nil {
		l.Primary.Close()
	}
	for _, b := range l.Backups {
		b.Close()
	}
	l.pool.Close()
	if l.root != "" {
		os.RemoveAll(l.root)
	}
}
