package paxos

import (
	"errors"
	"sync"

	"lambdastore/internal/rpc"
)

// ErrUnreachable models a partitioned or crashed peer in the local
// transport.
var ErrUnreachable = errors.New("paxos: peer unreachable")

// LocalTransport wires nodes together in-process. Tests use Disconnect to
// inject partitions and crashes.
type LocalTransport struct {
	mu    sync.RWMutex
	nodes map[uint64]*Node
	down  map[uint64]bool
}

// NewLocalTransport returns an empty in-process transport.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{nodes: make(map[uint64]*Node), down: make(map[uint64]bool)}
}

// Register attaches a node so peers can reach it.
func (t *LocalTransport) Register(n *Node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[n.ID()] = n
}

// Disconnect makes every message to peer fail until Reconnect. The
// transport does not know senders, so what peer sends still arrives.
func (t *LocalTransport) Disconnect(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[id] = true
}

// Reconnect restores a previously disconnected peer.
func (t *LocalTransport) Reconnect(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.down, id)
}

// deliver runs handle on peer's node, unless peer is down or unknown.
func deliver[T any](t *LocalTransport, peer uint64, handle func(*Node) T) (T, error) {
	t.mu.RLock()
	n, ok := t.nodes[peer]
	ok = ok && !t.down[peer]
	t.mu.RUnlock()
	if !ok {
		var zero T
		return zero, ErrUnreachable
	}
	return handle(n), nil
}

// Prepare implements Transport.
func (t *LocalTransport) Prepare(peer uint64, b Ballot) (*Reply, error) {
	return deliver(t, peer, func(n *Node) *Reply { return n.HandlePrepare(b) })
}

// Accept implements Transport.
func (t *LocalTransport) Accept(peer uint64, v *Versioned) (*Reply, error) {
	return deliver(t, peer, func(n *Node) *Reply { return n.HandleAccept(v) })
}

// Learn implements Transport.
func (t *LocalTransport) Learn(peer uint64, v *Versioned) error {
	_, err := deliver(t, peer, func(n *Node) *Node { n.HandleLearn(v); return n })
	return err
}

// Pull implements Transport.
func (t *LocalTransport) Pull(peer uint64) (*Versioned, error) {
	return deliver(t, peer, func(n *Node) *Versioned { v := n.Learned(); return &v })
}

// RPC method names used by the network transport.
const (
	methodPrepare = "paxos.prepare"
	methodAccept  = "paxos.accept"
	methodLearn   = "paxos.learn"
	methodPull    = "paxos.pull"
)

// RegisterServer exposes a node's acceptor/learner roles on an RPC server.
func RegisterServer(srv *rpc.Server, n *Node) {
	srv.Handle(methodPrepare, func(body []byte) ([]byte, error) {
		b, err := DecodeBallot(body)
		if err != nil {
			return nil, err
		}
		return EncodeReply(n.HandlePrepare(b)), nil
	})
	srv.Handle(methodAccept, func(body []byte) ([]byte, error) {
		v, err := DecodeVersioned(body)
		if err != nil {
			return nil, err
		}
		return EncodeReply(n.HandleAccept(v)), nil
	})
	srv.Handle(methodLearn, func(body []byte) ([]byte, error) {
		v, err := DecodeVersioned(body)
		if err != nil {
			return nil, err
		}
		n.HandleLearn(v)
		return nil, nil
	})
	srv.Handle(methodPull, func([]byte) ([]byte, error) {
		v := n.Learned()
		return EncodeVersioned(&v), nil
	})
}

// RPCTransport reaches peers over the rpc package. The local node's
// messages short-circuit in process.
type RPCTransport struct {
	self  *Node
	pool  *rpc.Pool
	addrs map[uint64]string
}

// NewRPCTransport builds a transport for self, given each peer's RPC
// address. self may be nil if the local node is registered in addrs too.
func NewRPCTransport(self *Node, pool *rpc.Pool, addrs map[uint64]string) *RPCTransport {
	cp := make(map[uint64]string, len(addrs))
	for k, v := range addrs {
		cp[k] = v
	}
	return &RPCTransport{self: self, pool: pool, addrs: cp}
}

// call sends one message: handled in process when peer is the local node,
// else over the pool, its answer parsed by decode.
func call[T any](t *RPCTransport, peer uint64, method string, body []byte, local func(*Node) T, decode func([]byte) (T, error)) (T, error) {
	if t.self != nil && peer == t.self.ID() {
		return local(t.self), nil
	}
	var zero T
	addr, ok := t.addrs[peer]
	if !ok {
		return zero, ErrUnreachable
	}
	resp, err := t.pool.Call(addr, method, body)
	if err != nil {
		return zero, err
	}
	return decode(resp)
}

// Prepare implements Transport.
func (t *RPCTransport) Prepare(peer uint64, b Ballot) (*Reply, error) {
	return call(t, peer, methodPrepare, EncodeBallot(b), func(n *Node) *Reply { return n.HandlePrepare(b) }, DecodeReply)
}

// Accept implements Transport.
func (t *RPCTransport) Accept(peer uint64, v *Versioned) (*Reply, error) {
	return call(t, peer, methodAccept, EncodeVersioned(v), func(n *Node) *Reply { return n.HandleAccept(v) }, DecodeReply)
}

// Learn implements Transport.
func (t *RPCTransport) Learn(peer uint64, v *Versioned) error {
	_, err := call(t, peer, methodLearn, EncodeVersioned(v),
		func(n *Node) []byte { n.HandleLearn(v); return nil },
		func([]byte) ([]byte, error) { return nil, nil })
	return err
}

// Pull implements Transport.
func (t *RPCTransport) Pull(peer uint64) (*Versioned, error) {
	return call(t, peer, methodPull, nil, func(n *Node) *Versioned { v := n.Learned(); return &v }, DecodeVersioned)
}
