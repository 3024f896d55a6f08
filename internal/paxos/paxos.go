// Package paxos implements the consensus protocol behind LambdaStore's
// cluster coordination service. The paper (§4.2.1) replicates the
// coordinator with Paxos "to ensure availability at all times"; this
// package provides exactly that: a multi-decree Paxos log where each slot
// is decided by the classic two-phase protocol (Lamport's "The Part-Time
// Parliament", simplified as in "Paxos Made Simple").
//
// Roles:
//   - Acceptor: durable-vote state machine (promise / accept).
//   - Proposer: drives phase 1 (prepare) and phase 2 (accept) against a
//     quorum of acceptors, slot by slot.
//   - Learner: observes chosen values and applies them in slot order.
//
// The Transport interface abstracts the wire; production uses the rpc
// package, tests use an in-memory transport with injectable partitions.
package paxos

import (
	"errors"
	"fmt"
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

func (b Ballot) String() string { return fmt.Sprintf("%d.%d", b.Round, b.Node) }

// IsZero reports whether the ballot is the zero value.
func (b Ballot) IsZero() bool { return b.Round == 0 && b.Node == 0 }

// PrepareReq is phase-1a: a proposer asks acceptors to promise ballot for
// slot.
type PrepareReq struct {
	Slot   uint64
	Ballot Ballot
}

// PrepareResp is phase-1b.
type PrepareResp struct {
	OK       bool
	Promised Ballot // highest promise (hint for the proposer on reject)
	// If the acceptor already accepted a value in this slot, it reports it
	// so the proposer must adopt the highest-ballot one.
	AcceptedBallot Ballot
	AcceptedValue  []byte
	HasAccepted    bool
}

// AcceptReq is phase-2a.
type AcceptReq struct {
	Slot   uint64
	Ballot Ballot
	Value  []byte
}

// AcceptResp is phase-2b.
type AcceptResp struct {
	OK       bool
	Promised Ballot
}

// LearnReq informs learners that a value was chosen for slot.
type LearnReq struct {
	Slot  uint64
	Value []byte
}

// Transport delivers protocol messages to a peer. Implementations must be
// safe for concurrent use. An error models an unreachable peer.
type Transport interface {
	Prepare(peer uint64, req *PrepareReq) (*PrepareResp, error)
	Accept(peer uint64, req *AcceptReq) (*AcceptResp, error)
	Learn(peer uint64, req *LearnReq) error
}

// acceptedEntry is an acceptor's vote for one slot.
type acceptedEntry struct {
	ballot Ballot
	value  []byte
}

// Node is one Paxos participant combining all three roles.
type Node struct {
	id     uint64
	peers  []uint64 // all node IDs, including self
	trans  Transport
	applyF func(slot uint64, value []byte)
	stable Stable // optional durable acceptor storage

	// applyMu serializes HandleLearn from computing the ready run to
	// applying it, so two learns racing past mu still apply in slot order.
	applyMu sync.Mutex
	mu      sync.Mutex
	// Acceptor state.
	promised map[uint64]Ballot // slot -> highest promise
	accepted map[uint64]acceptedEntry
	// Learner state.
	chosen    map[uint64][]byte
	nextApply uint64 // lowest slot not yet applied
	// Proposer state.
	lastRound uint64
	nextSlot  uint64 // lowest slot this node believes may be free
	closed    bool
}

// NewNode creates a participant. peers must list every node ID including
// id; apply is called exactly once per slot, in slot order, as values are
// chosen (it must not call back into the node).
func NewNode(id uint64, peers []uint64, trans Transport, apply func(slot uint64, value []byte)) *Node {
	return &Node{
		id:       id,
		peers:    append([]uint64(nil), peers...),
		trans:    trans,
		applyF:   apply,
		promised: make(map[uint64]Ballot),
		accepted: make(map[uint64]acceptedEntry),
		chosen:   make(map[uint64][]byte),
	}
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

// quorum returns the majority size.
func (n *Node) quorum() int { return len(n.peers)/2 + 1 }

// Close marks the node closed; subsequent proposals fail.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
}

// --- Acceptor role (invoked by the transport layer) ---

// HandlePrepare processes a phase-1a message.
func (n *Node) HandlePrepare(req *PrepareReq) *PrepareResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.promised[req.Slot]
	if req.Ballot.Less(cur) {
		return &PrepareResp{OK: false, Promised: cur}
	}
	if n.stable != nil && cur.Less(req.Ballot) {
		// The promise must survive a restart before the proposer may rely
		// on it; refusing on persistence failure keeps safety.
		if err := n.stable.SavePromise(req.Slot, req.Ballot); err != nil {
			return &PrepareResp{OK: false, Promised: cur}
		}
	}
	n.promised[req.Slot] = req.Ballot
	resp := &PrepareResp{OK: true, Promised: req.Ballot}
	if acc, ok := n.accepted[req.Slot]; ok {
		resp.HasAccepted = true
		resp.AcceptedBallot = acc.ballot
		resp.AcceptedValue = acc.value
	}
	return resp
}

// HandleAccept processes a phase-2a message.
func (n *Node) HandleAccept(req *AcceptReq) *AcceptResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.promised[req.Slot]
	if req.Ballot.Less(cur) {
		return &AcceptResp{OK: false, Promised: cur}
	}
	if n.stable != nil {
		if err := n.stable.SaveAccepted(req.Slot, req.Ballot, req.Value); err != nil {
			return &AcceptResp{OK: false, Promised: cur}
		}
	}
	n.promised[req.Slot] = req.Ballot
	n.accepted[req.Slot] = acceptedEntry{ballot: req.Ballot, value: append([]byte(nil), req.Value...)}
	return &AcceptResp{OK: true, Promised: req.Ballot}
}

// HandleLearn records a chosen value and applies ready slots in order.
func (n *Node) HandleLearn(req *LearnReq) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	if _, ok := n.chosen[req.Slot]; !ok {
		n.chosen[req.Slot] = append([]byte(nil), req.Value...)
	}
	if req.Slot >= n.nextSlot {
		n.nextSlot = req.Slot + 1
	}
	var ready []struct {
		slot  uint64
		value []byte
	}
	for {
		v, ok := n.chosen[n.nextApply]
		if !ok {
			break
		}
		ready = append(ready, struct {
			slot  uint64
			value []byte
		}{n.nextApply, v})
		n.nextApply++
	}
	apply := n.applyF
	n.mu.Unlock()
	if apply != nil {
		for _, r := range ready {
			apply(r.slot, r.value)
		}
	}
}

// NumChosen returns how many consecutive slots from 0 have been applied.
func (n *Node) NumChosen() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nextApply
}

// --- Proposer role ---

// Propose drives value through consensus. It returns the slot at which a
// value was chosen with this node as proposer and the chosen value — which
// may be a DIFFERENT value if the slot turned out to be taken; callers loop
// until their own value is chosen (see ProposeMine).
func (n *Node) Propose(value []byte) (slot uint64, chosenValue []byte, err error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0, nil, ErrClosed
	}
	slot = n.nextSlot
	n.mu.Unlock()

	chosen, err := n.proposeSlot(slot, value)
	if err != nil {
		return 0, nil, err
	}
	return slot, chosen, nil
}

// ProposeMine keeps proposing until value itself is chosen in some slot,
// skipping slots taken by competing proposers. Returns the slot it landed
// in.
func (n *Node) ProposeMine(value []byte) (uint64, error) {
	for {
		slot, chosen, err := n.Propose(value)
		if err != nil {
			return 0, err
		}
		if string(chosen) == string(value) {
			return slot, nil
		}
		// Slot was occupied by another proposal; try the next one.
	}
}

// proposeSlot runs full Paxos for one slot and returns the value chosen
// there (ours, or an earlier proposer's that we were obliged to adopt).
func (n *Node) proposeSlot(slot uint64, value []byte) ([]byte, error) {
	// Fast path: already known chosen.
	n.mu.Lock()
	if v, ok := n.chosen[slot]; ok {
		if slot >= n.nextSlot {
			n.nextSlot = slot + 1
		}
		n.mu.Unlock()
		return v, nil
	}
	n.mu.Unlock()

	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return nil, ErrClosed
		}
		n.lastRound++
		ballot := Ballot{Round: n.lastRound, Node: n.id}
		n.mu.Unlock()

		// Phase 1: prepare.
		promises := 0
		var adoptBallot Ballot
		adoptValue := value
		var highestPromise Ballot
		for _, peer := range n.peers {
			resp, err := n.trans.Prepare(peer, &PrepareReq{Slot: slot, Ballot: ballot})
			if err != nil {
				continue
			}
			if !resp.OK {
				if highestPromise.Less(resp.Promised) {
					highestPromise = resp.Promised
				}
				continue
			}
			promises++
			if resp.HasAccepted && adoptBallot.Less(resp.AcceptedBallot) {
				adoptBallot = resp.AcceptedBallot
				adoptValue = resp.AcceptedValue
			}
		}
		if promises < n.quorum() {
			if highestPromise.IsZero() {
				return nil, ErrNoQuorum
			}
			// Lost to a higher ballot: bump our round past it and retry.
			n.mu.Lock()
			if n.lastRound <= highestPromise.Round {
				n.lastRound = highestPromise.Round
			}
			n.mu.Unlock()
			continue
		}

		// Phase 2: accept.
		accepts := 0
		highestPromise = Ballot{}
		for _, peer := range n.peers {
			resp, err := n.trans.Accept(peer, &AcceptReq{Slot: slot, Ballot: ballot, Value: adoptValue})
			if err != nil {
				continue
			}
			if resp.OK {
				accepts++
			} else if highestPromise.Less(resp.Promised) {
				highestPromise = resp.Promised
			}
		}
		if accepts < n.quorum() {
			if highestPromise.IsZero() {
				return nil, ErrNoQuorum
			}
			n.mu.Lock()
			if n.lastRound <= highestPromise.Round {
				n.lastRound = highestPromise.Round
			}
			n.mu.Unlock()
			continue
		}

		// Chosen: teach all learners (including ourselves).
		learn := &LearnReq{Slot: slot, Value: adoptValue}
		n.HandleLearn(learn)
		for _, peer := range n.peers {
			if peer == n.id {
				continue
			}
			// Best effort: lagging learners catch up via CatchUp.
			_ = n.trans.Learn(peer, learn)
		}
		return adoptValue, nil
	}
}

// CatchUp fills gaps in this node's learned log by re-running consensus
// with no-op values for unknown slots up to (but excluding) limit. Paxos
// guarantees re-proposing cannot change already-chosen values.
func (n *Node) CatchUp(limit uint64) error {
	for slot := uint64(0); slot < limit; slot++ {
		n.mu.Lock()
		_, known := n.chosen[slot]
		n.mu.Unlock()
		if known {
			continue
		}
		chosen, err := n.proposeSlot(slot, nil)
		if err != nil {
			return err
		}
		n.HandleLearn(&LearnReq{Slot: slot, Value: chosen})
	}
	return nil
}

// --- Message serialization (for the RPC transport) ---

// EncodePrepareReq serializes req.
func EncodePrepareReq(req *PrepareReq) []byte {
	var b []byte
	b = wire.AppendUvarint(b, req.Slot)
	b = wire.AppendUvarint(b, req.Ballot.Round)
	b = wire.AppendUvarint(b, req.Ballot.Node)
	return b
}

// DecodePrepareReq parses a serialized PrepareReq.
func DecodePrepareReq(b []byte) (*PrepareReq, error) {
	r := wire.NewReader(b)
	req := &PrepareReq{Slot: r.Uvarint(), Ballot: readBallot(&r)}
	return req, r.ErrIn("paxos: prepare request")
}

func readBallot(r *wire.Reader) Ballot { return Ballot{Round: r.Uvarint(), Node: r.Uvarint()} }

// EncodePrepareResp serializes resp.
func EncodePrepareResp(r *PrepareResp) []byte {
	var b []byte
	b = wire.AppendFlag(b, r.OK)
	b = wire.AppendUvarint(b, r.Promised.Round)
	b = wire.AppendUvarint(b, r.Promised.Node)
	b = wire.AppendFlag(b, r.HasAccepted)
	b = wire.AppendUvarint(b, r.AcceptedBallot.Round)
	b = wire.AppendUvarint(b, r.AcceptedBallot.Node)
	b = wire.AppendBytes(b, r.AcceptedValue)
	return b
}

// DecodePrepareResp parses a serialized PrepareResp.
func DecodePrepareResp(b []byte) (*PrepareResp, error) {
	r := wire.NewReader(b)
	resp := &PrepareResp{OK: r.Flag(), Promised: readBallot(&r),
		HasAccepted: r.Flag(), AcceptedBallot: readBallot(&r), AcceptedValue: r.BytesCopy()}
	return resp, r.ErrIn("paxos: prepare response")
}

// EncodeAcceptReq serializes req.
func EncodeAcceptReq(req *AcceptReq) []byte {
	var b []byte
	b = wire.AppendUvarint(b, req.Slot)
	b = wire.AppendUvarint(b, req.Ballot.Round)
	b = wire.AppendUvarint(b, req.Ballot.Node)
	b = wire.AppendBytes(b, req.Value)
	return b
}

// DecodeAcceptReq parses a serialized AcceptReq.
func DecodeAcceptReq(b []byte) (*AcceptReq, error) {
	r := wire.NewReader(b)
	req := &AcceptReq{Slot: r.Uvarint(), Ballot: readBallot(&r), Value: r.BytesCopy()}
	return req, r.ErrIn("paxos: accept request")
}

// EncodeAcceptResp serializes resp.
func EncodeAcceptResp(r *AcceptResp) []byte {
	var b []byte
	b = wire.AppendFlag(b, r.OK)
	b = wire.AppendUvarint(b, r.Promised.Round)
	b = wire.AppendUvarint(b, r.Promised.Node)
	return b
}

// DecodeAcceptResp parses a serialized AcceptResp.
func DecodeAcceptResp(b []byte) (*AcceptResp, error) {
	r := wire.NewReader(b)
	resp := &AcceptResp{OK: r.Flag(), Promised: readBallot(&r)}
	return resp, r.ErrIn("paxos: accept response")
}

// EncodeLearnReq serializes req.
func EncodeLearnReq(req *LearnReq) []byte {
	var b []byte
	b = wire.AppendUvarint(b, req.Slot)
	b = wire.AppendBytes(b, req.Value)
	return b
}

// DecodeLearnReq parses a serialized LearnReq.
func DecodeLearnReq(b []byte) (*LearnReq, error) {
	r := wire.NewReader(b)
	req := &LearnReq{Slot: r.Uvarint(), Value: r.BytesCopy()}
	return req, r.ErrIn("paxos: learn request")
}
