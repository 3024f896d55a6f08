// Package paxos implements the consensus protocol behind LambdaStore's
// cluster coordination service. The paper (§4.2.1) replicates the
// coordinator with Paxos "to ensure availability at all times", and what it
// keeps available is one small value, the placement directory. So this
// package replicates one register, not a log: every change is one
// single-decree round over the whole value (Rystsov, "CASPaxos: Replicated
// State Machines without logs", 2018).
//
// Roles:
//   - Acceptor: keeps one promise and one vote (ballot, value), durable
//     before it answers.
//   - Proposer: Change(f) runs phase 1 on a majority, applies f to the value
//     accepted at the highest ballot it was told of, and gets the result
//     chosen in phase 2 — always, even when f changed nothing, so what it
//     returns is chosen.
//   - Learner: adopts any chosen (ballot, value) whose ballot is higher than
//     its own. A value chosen at a higher ballot descends from every value
//     chosen at a lower one, so a learn the learner missed heals at the
//     next one, or at a pull (Pull).
//
// The Transport interface abstracts the wire; production uses the rpc
// package, tests use an in-memory transport with injectable partitions.
package paxos

import (
	"errors"
	"sync"

	"lambdastore/internal/wire"
)

// Errors.
var (
	ErrNoQuorum = errors.New("paxos: no quorum reachable")
	ErrClosed   = errors.New("paxos: node closed")
)

// Ballot orders proposal attempts; ties broken by proposer ID.
type Ballot struct {
	Round uint64
	Node  uint64
}

// Less reports whether b orders before o.
func (b Ballot) Less(o Ballot) bool {
	if b.Round != o.Round {
		return b.Round < o.Round
	}
	return b.Node < o.Node
}

// Versioned is a register value and the ballot it was accepted at. It is
// the phase-2a accept, the learn, and the answer to a pull; a zero Ballot
// is no value at all.
type Versioned struct {
	Ballot Ballot
	Value  []byte
}

// Reply is an acceptor's answer to a prepare (phase 1b) or an accept
// (phase 2b): whether it took the ballot, the highest ballot it has
// promised, and, to a prepare, the value it accepted last.
type Reply struct {
	OK       bool
	Promised Ballot
	Accepted Versioned
}

// Transport delivers protocol messages to a peer. Implementations must be
// safe for concurrent use. An error models an unreachable peer.
type Transport interface {
	Prepare(peer uint64, b Ballot) (*Reply, error)
	Accept(peer uint64, v *Versioned) (*Reply, error)
	Learn(peer uint64, v *Versioned) error
	// Pull asks peer for the value it learned last.
	Pull(peer uint64) (*Versioned, error)
}

// State is what a node must not forget across a restart: its acceptor's
// promise and vote, and the value its learner learned last.
type State struct {
	Promised Ballot
	Accepted Versioned
	Learned  Versioned
}

// Node is one Paxos participant combining all three roles.
type Node struct {
	id     uint64
	peers  []uint64 // all node IDs, including self
	trans  Transport
	stable *FileStable // nil keeps the state in memory only

	mu        sync.Mutex
	st        State
	lastRound uint64 // the proposer's last round
	closed    bool
}

// NewNode creates a participant. peers must list every node ID including
// id.
func NewNode(id uint64, peers []uint64, trans Transport) *Node {
	return &Node{id: id, peers: append([]uint64(nil), peers...), trans: trans}
}

// ID returns the node's identifier.
func (n *Node) ID() uint64 { return n.id }

// SetTransport installs the transport. Must be called before the first
// proposal when the transport could not be built at construction time
// (e.g. RPC transports that need every peer's address first).
func (n *Node) SetTransport(t Transport) {
	n.mu.Lock()
	n.trans = t
	n.mu.Unlock()
}

// SetStable makes s the node's durable state and resumes from what it
// holds: the promise, the vote and the learned value. Must be called
// before the node handles any message.
func (n *Node) SetStable(s *FileStable) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stable, n.st = s, s.state
}

// quorum returns the majority size.
func (n *Node) quorum() int { return len(n.peers)/2 + 1 }

// Close marks the node closed; subsequent proposals fail.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
}

// update makes next the node's state, durable first when the node has
// stable storage; it reports false, changing nothing, when the save failed.
// The caller holds mu.
func (n *Node) update(next State) bool {
	if n.stable != nil && n.stable.save(&next) != nil {
		return false
	}
	n.st = next
	return true
}

// --- Acceptor and learner roles (invoked by the transport layer) ---

// HandlePrepare processes a phase-1a message. A promise must survive a
// restart before the proposer may rely on it, so one that could not be
// saved is refused.
func (n *Node) HandlePrepare(b Ballot) *Reply {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b.Less(n.st.Promised) {
		return &Reply{Promised: n.st.Promised}
	}
	if b != n.st.Promised {
		next := n.st
		next.Promised = b
		if !n.update(next) {
			return &Reply{Promised: n.st.Promised}
		}
	}
	return &Reply{OK: true, Promised: b, Accepted: n.st.Accepted}
}

// HandleAccept processes a phase-2a message.
func (n *Node) HandleAccept(v *Versioned) *Reply {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v.Ballot.Less(n.st.Promised) {
		return &Reply{Promised: n.st.Promised}
	}
	next := n.st
	next.Promised = v.Ballot
	next.Accepted = Versioned{Ballot: v.Ballot, Value: append([]byte(nil), v.Value...)}
	if !n.update(next) {
		return &Reply{Promised: n.st.Promised}
	}
	return &Reply{OK: true, Promised: v.Ballot}
}

// HandleLearn adopts a chosen value newer than the one this node learned
// last.
func (n *Node) HandleLearn(v *Versioned) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.st.Learned.Ballot.Less(v.Ballot) {
		next := n.st
		next.Learned = Versioned{Ballot: v.Ballot, Value: append([]byte(nil), v.Value...)}
		_ = n.update(next) // unsaved, it is not adopted; a later learn or pull brings it again
	}
}

// Learned returns the value this node learned last (a zero Ballot and no
// value before it learned any). The value is shared: read it, never write
// it.
func (n *Node) Learned() Versioned {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.Learned
}

// --- Proposer role ---

// Change runs one round over the register: f is applied to the value
// accepted at the highest ballot a majority reports (nil before the first
// change), and its result is chosen in phase 2 and taught to every learner.
// A round that a competing proposer got ahead of is run again under a
// higher ballot, so f may run more than once; it must neither keep nor
// modify what it is given, and an error from it abandons the change. A
// lost phase 2 may still leave its value with one acceptor, from which this
// proposer's next round, or a rival's, carries it forward: f may so be
// given a value that already holds its own step, which must then be a
// no-op (every coordinator command is guarded or epoch-fenced). Change
// returns the chosen value.
func (n *Node) Change(f func(cur []byte) ([]byte, error)) ([]byte, error) {
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return nil, ErrClosed
		}
		n.lastRound = max(n.lastRound, n.st.Promised.Round) + 1
		ballot := Ballot{Round: n.lastRound, Node: n.id}
		n.mu.Unlock()

		// Phase 1: prepare.
		var cur Versioned
		promises, rival := 0, Ballot{}
		for _, peer := range n.peers {
			resp, err := n.trans.Prepare(peer, ballot)
			if err != nil {
				continue
			}
			if !resp.OK {
				rival = maxBallot(rival, resp.Promised)
				continue
			}
			promises++
			if cur.Ballot.Less(resp.Accepted.Ballot) {
				cur = resp.Accepted
			}
		}
		if promises < n.quorum() {
			if err := n.lost(rival); err != nil {
				return nil, err
			}
			continue
		}
		value, err := f(cur.Value)
		if err != nil {
			return nil, err
		}

		// Phase 2: accept.
		chosen := &Versioned{Ballot: ballot, Value: value}
		accepts := 0
		rival = Ballot{}
		for _, peer := range n.peers {
			resp, err := n.trans.Accept(peer, chosen)
			if err != nil {
				continue
			}
			if resp.OK {
				accepts++
			} else {
				rival = maxBallot(rival, resp.Promised)
			}
		}
		if accepts < n.quorum() {
			if err := n.lost(rival); err != nil {
				return nil, err
			}
			continue
		}

		// Chosen: teach all learners (including ourselves). Best effort: a
		// learner that misses it adopts the next learn, or pulls.
		n.HandleLearn(chosen)
		for _, peer := range n.peers {
			if peer != n.id {
				_ = n.trans.Learn(peer, chosen)
			}
		}
		return value, nil
	}
}

// lost handles a phase that no majority took: with no rival ballot in
// sight the majority is unreachable, and otherwise the next round starts
// above the rival's.
func (n *Node) lost(rival Ballot) error {
	if rival == (Ballot{}) {
		return ErrNoQuorum
	}
	n.mu.Lock()
	n.lastRound = max(n.lastRound, rival.Round)
	n.mu.Unlock()
	return nil
}

func maxBallot(a, b Ballot) Ballot {
	if a.Less(b) {
		return b
	}
	return a
}

// Pull asks every peer for the value it learned last and adopts the
// newest: a learner that missed a learn catches up without waiting for the
// next change. It reports whether a majority, this node included, answered.
func (n *Node) Pull() bool {
	answered := 1
	for _, peer := range n.peers {
		if peer == n.id {
			continue
		}
		if v, err := n.trans.Pull(peer); err == nil {
			n.HandleLearn(v)
			answered++
		}
	}
	return answered >= n.quorum()
}

// --- Message serialization (for the RPC transport) ---

// EncodeBallot serializes a ballot: the prepare message.
func EncodeBallot(b Ballot) []byte { return appendBallot(nil, b) }

// DecodeBallot parses a serialized ballot.
func DecodeBallot(data []byte) (Ballot, error) {
	r := wire.NewReader(data)
	b := readBallot(&r)
	return b, r.ErrIn("paxos: prepare")
}

func appendBallot(dst []byte, b Ballot) []byte {
	return wire.AppendUvarint(wire.AppendUvarint(dst, b.Round), b.Node)
}

func readBallot(r *wire.Reader) Ballot { return Ballot{Round: r.Uvarint(), Node: r.Uvarint()} }

func appendVersioned(dst []byte, v *Versioned) []byte {
	return wire.AppendBytes(appendBallot(dst, v.Ballot), v.Value)
}

func readVersioned(r *wire.Reader) Versioned {
	return Versioned{Ballot: readBallot(r), Value: r.BytesCopy()}
}

// EncodeVersioned serializes an accept, a learn or a pull's answer.
func EncodeVersioned(v *Versioned) []byte { return appendVersioned(nil, v) }

// DecodeVersioned parses a serialized Versioned.
func DecodeVersioned(data []byte) (*Versioned, error) {
	r := wire.NewReader(data)
	v := readVersioned(&r)
	return &v, r.ErrIn("paxos: versioned value")
}

// EncodeReply serializes an acceptor's reply.
func EncodeReply(rep *Reply) []byte {
	return appendVersioned(appendBallot(wire.AppendFlag(nil, rep.OK), rep.Promised), &rep.Accepted)
}

// DecodeReply parses a serialized Reply.
func DecodeReply(data []byte) (*Reply, error) {
	r := wire.NewReader(data)
	rep := &Reply{OK: r.Flag(), Promised: readBallot(&r)}
	rep.Accepted = readVersioned(&r)
	return rep, r.ErrIn("paxos: reply")
}
