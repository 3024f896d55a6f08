package paxos

import (
	"fmt"
	"os"
	"sync"

	"lambdastore/internal/wire"
)

// Stable is durable acceptor state. Paxos safety depends on an acceptor
// never forgetting a promise or an accepted value across restarts; every
// record must be durable before the acceptor responds to the proposer.
type Stable interface {
	// SavePromise records the highest promise for slot.
	SavePromise(slot uint64, b Ballot) error
	// SaveAccepted records the accepted (ballot, value) for slot.
	SaveAccepted(slot uint64, b Ballot, value []byte) error
	// Load replays the saved state in write order.
	Load(fn func(slot uint64, promised Ballot, accepted bool, acceptedBallot Ballot, value []byte) error) error
	// Close releases resources.
	Close() error
}

// Record kinds in the stable log.
const (
	stablePromise = 1
	stableAccept  = 2
)

// FileStable is an append-only, fsync-per-record implementation of Stable.
type FileStable struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenFileStable opens (creating if needed) the acceptor log at path.
func OpenFileStable(path string) (*FileStable, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("paxos: open stable log: %w", err)
	}
	return &FileStable{f: f, path: path}, nil
}

// append frames and fsyncs one record.
func (s *FileStable) append(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(wire.AppendFrame(nil, payload)); err != nil {
		return fmt.Errorf("paxos: stable write: %w", err)
	}
	return s.f.Sync()
}

// SavePromise implements Stable.
func (s *FileStable) SavePromise(slot uint64, b Ballot) error {
	var p []byte
	p = append(p, stablePromise)
	p = wire.AppendUvarint(p, slot)
	p = wire.AppendUvarint(p, b.Round)
	p = wire.AppendUvarint(p, b.Node)
	return s.append(p)
}

// SaveAccepted implements Stable.
func (s *FileStable) SaveAccepted(slot uint64, b Ballot, value []byte) error {
	var p []byte
	p = append(p, stableAccept)
	p = wire.AppendUvarint(p, slot)
	p = wire.AppendUvarint(p, b.Round)
	p = wire.AppendUvarint(p, b.Node)
	p = wire.AppendBytes(p, value)
	return s.append(p)
}

// Load implements Stable. A torn final record (crash during append) ends
// replay silently.
func (s *FileStable) Load(fn func(slot uint64, promised Ballot, accepted bool, acceptedBallot Ballot, value []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.path)
	if err != nil {
		return err
	}
	log := wire.NewReader(data)
	for log.Len() > 0 {
		payload := log.Frame()
		if log.Err() != nil {
			return nil // torn tail
		}
		if len(payload) < 1 {
			continue
		}
		r := wire.NewReader(payload)
		kind, slot, b := r.Byte(), r.Uvarint(), readBallot(&r)
		var value []byte
		if kind == stableAccept {
			value = r.BytesCopy()
		}
		if err := r.ErrIn("paxos: stable record"); err != nil {
			return err
		}
		switch kind {
		case stablePromise:
			err = fn(slot, b, false, Ballot{}, nil)
		case stableAccept:
			err = fn(slot, Ballot{}, true, b, value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Close implements Stable.
func (s *FileStable) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// SetStable installs durable acceptor storage on the node and replays its
// contents. Must be called before the node handles any message.
func (n *Node) SetStable(s Stable) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	err := s.Load(func(slot uint64, promised Ballot, accepted bool, acceptedBallot Ballot, value []byte) error {
		if accepted {
			if cur, ok := n.accepted[slot]; !ok || cur.ballot.Less(acceptedBallot) {
				n.accepted[slot] = acceptedEntry{ballot: acceptedBallot, value: value}
			}
			if n.promised[slot].Less(acceptedBallot) {
				n.promised[slot] = acceptedBallot
			}
		} else if n.promised[slot].Less(promised) {
			n.promised[slot] = promised
		}
		return nil
	})
	if err != nil {
		return err
	}
	n.stable = s
	return nil
}
