package paxos

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"lambdastore/internal/wire"
)

// stateMagic opens every stable record. The append-only log this record
// replaced began with a frame length, so a file in that format fails here
// instead of being half-read.
const stateMagic = "paxos-register/1\n"

// EncodeState serializes a node's durable state: the magic, then one
// checksummed frame.
func EncodeState(st *State) []byte {
	p := appendBallot(nil, st.Promised)
	p = appendVersioned(p, &st.Accepted)
	p = appendVersioned(p, &st.Learned)
	return wire.AppendFrame([]byte(stateMagic), p)
}

// DecodeState parses a serialized State.
func DecodeState(data []byte) (*State, error) {
	r := wire.NewReader(data)
	if string(r.Raw(uint64(len(stateMagic)))) != stateMagic {
		return nil, errors.New("paxos: not an acceptor state record (an append log from before the register?)")
	}
	payload := r.Frame()
	if r.Len() > 0 {
		return nil, errors.New("paxos: trailing bytes after the acceptor state record")
	}
	if err := r.ErrIn("paxos: acceptor state record"); err != nil {
		return nil, err
	}
	p := wire.NewReader(payload)
	st := &State{Promised: readBallot(&p)}
	st.Accepted = readVersioned(&p)
	st.Learned = readVersioned(&p)
	return st, p.ErrIn("paxos: acceptor state")
}

// FileStable keeps a node's State in one file of one record. Each save
// writes the whole record to a temporary file, syncs it, renames it over
// the old one and syncs the directory, so the file never grows and a crash
// leaves the old record or the new one.
type FileStable struct {
	path  string
	state State // what the file held at open
}

// OpenFileStable reads the state record at path; a missing file is a
// fresh node. A file that is not one whole record is refused, never
// half-read.
func OpenFileStable(path string) (*FileStable, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &FileStable{path: path}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("paxos: open stable state: %w", err)
	}
	st, err := DecodeState(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &FileStable{path: path, state: *st}, nil
}

// save durably replaces the record with st.
func (s *FileStable) save(st *State) error {
	tmp := s.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(EncodeState(st))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		return fmt.Errorf("paxos: save stable state: %w", err)
	}
	dir, err := os.Open(filepath.Dir(s.path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
