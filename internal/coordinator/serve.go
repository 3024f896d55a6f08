package coordinator

import (
	"fmt"
	"slices"

	"lambdastore/internal/paxos"
	"lambdastore/internal/rpc"
	"lambdastore/internal/telemetry"
)

// Member is one coordinator replica on the network: the service behind an
// RPC server, reaching its peers over its own pool.
type Member struct {
	Service *Service
	// Addr is the bound RPC address.
	Addr string
	// Pool carries the replica's consensus traffic (cmd/lambdacoord's
	// rebalancer shares it).
	Pool *rpc.Pool

	srv     *rpc.Server
	started bool // the failure detector runs; Service.Close has something to wait for
}

// Serve brings one ensemble member up end to end: the replica with Paxos
// identity id, its acceptor state replayed from stable (nil keeps it in
// memory only), serving on addr and reaching every replica in peers
// (id -> address, this one included), failure detector running. The caller
// keeps ownership of stable and closes it after the member.
func Serve(id uint64, peers map[uint64]string, addr string, stable paxos.Stable, opts Options, reg *telemetry.Registry) (*Member, error) {
	ids := make([]uint64, 0, len(peers))
	for peer := range peers {
		ids = append(ids, peer)
	}
	slices.Sort(ids)
	m, err := listen(id, ids, addr, stable, opts, reg)
	if err != nil {
		return nil, err
	}
	m.connect(peers)
	return m, nil
}

// listen is Serve up to the point where the member's address is known;
// connect is the rest. An ensemble on ephemeral ports needs every member
// listening before any can be told where its peers are.
func listen(id uint64, ids []uint64, addr string, stable paxos.Stable, opts Options, reg *telemetry.Registry) (*Member, error) {
	m := &Member{Service: New(id, ids, nil, opts, reg), Pool: rpc.NewPool(nil), srv: rpc.NewServer()}
	if stable != nil {
		if err := m.Service.Node().SetStable(stable); err != nil {
			m.Pool.Close()
			return nil, fmt.Errorf("coordinator: load acceptor state: %w", err)
		}
	}
	m.srv.SetTelemetry(reg)
	m.Pool.SetTelemetry(reg)
	RegisterServer(m.srv, m.Service)
	bound, err := m.srv.Serve(addr)
	if err != nil {
		m.Pool.Close()
		return nil, fmt.Errorf("coordinator: replica %d: %w", id, err)
	}
	m.Addr = bound
	return m, nil
}

func (m *Member) connect(peers map[uint64]string) {
	m.Service.SetTransport(paxos.NewRPCTransport(m.Service.Node(), m.Pool, peers))
	m.Service.Start()
	m.started = true
}

// Close stops the replica and releases its server and connections.
func (m *Member) Close() {
	if m.started {
		m.Service.Close()
	}
	m.srv.Close()
	m.Pool.Close()
}

// Ensemble is a whole coordinator ensemble in one process.
type Ensemble struct {
	Members []*Member
}

// StartEnsemble boots n replicas (Paxos identities 1..n) on loopback
// ephemeral ports, each running opts, with in-memory acceptor state.
func StartEnsemble(n int, opts Options) (*Ensemble, error) {
	e := &Ensemble{}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	peers := make(map[uint64]string, n)
	for _, id := range ids {
		m, err := listen(id, ids, "127.0.0.1:0", nil, opts, nil)
		if err != nil {
			e.Close()
			return nil, err
		}
		e.Members = append(e.Members, m)
		peers[id] = m.Addr
	}
	for _, m := range e.Members {
		m.connect(peers)
	}
	return e, nil
}

// Addrs lists the replicas' RPC addresses in identity order — what
// NodeOptions.Coordinators and ClientConfig.Coordinators take.
func (e *Ensemble) Addrs() []string {
	addrs := make([]string, len(e.Members))
	for i, m := range e.Members {
		addrs[i] = m.Addr
	}
	return addrs
}

// Watching reports whether a majority of the replicas' failure detectors
// hold a fresh liveness entry for every one of addrs: until then a node's
// death could go unnoticed by the quorum that has to agree on it.
func (e *Ensemble) Watching(addrs []string) bool {
	covered := 0
	for _, m := range e.Members {
		seen := m.Service.LastSeen()
		all := true
		for _, addr := range addrs {
			if age, ok := seen[addr]; !ok || age > m.Service.opts.HeartbeatTimeout {
				all = false
				break
			}
		}
		if all {
			covered++
		}
	}
	return covered > len(e.Members)/2
}

// Close stops every replica.
func (e *Ensemble) Close() {
	for _, m := range e.Members {
		m.Close()
	}
}
