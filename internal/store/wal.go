package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/wire"
)

// walWriter appends checksummed records to a write-ahead log file. Every
// committed batch is logged before it is applied to the memtable, so a
// crash after commit can always be replayed.
type walWriter struct {
	f   *os.File
	w   *bufio.Writer
	buf []byte
	// faultKey identifies this log to the fault plane (the database
	// directory), so chaos schedules can fail one node's fsyncs.
	faultKey string
}

// newWALWriter creates (or truncates) the log file at path. faultKey is the
// owning database's fault-plane identity.
func newWALWriter(path, faultKey string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create wal: %w", err)
	}
	return &walWriter{f: f, w: bufio.NewWriterSize(f, 64<<10), faultKey: faultKey}, nil
}

// append writes one record. If sync is true the record is fsynced before
// returning.
func (w *walWriter) append(record []byte, sync bool) error {
	return w.appendAll(record, []int{len(record)}, sync)
}

// appendAll writes a group of records — laid back to back in group, each
// ending at its entry of ends — with one buffered flush and, when sync is
// set, one fsync covering all of them. This is the durability half of group
// commit: every record in the group becomes durable together, at the cost
// of a single disk synchronization.
func (w *walWriter) appendAll(group []byte, ends []int, sync bool) error {
	start := 0
	for _, end := range ends {
		w.buf = wire.AppendFrame(w.buf[:0], group[start:end])
		start = end
		if _, err := w.w.Write(w.buf); err != nil {
			return fmt.Errorf("store: wal write: %w", err)
		}
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("store: wal flush: %w", err)
	}
	if sync {
		if fault.Enabled() {
			// An injected sync failure models a failed fsync: the record
			// reached the OS (Flush above) but durability is not promised,
			// exactly the torn-tail shape replayWAL tolerates.
			d := fault.Eval(fault.SiteWALSync, "", w.faultKey)
			if d.Delay > 0 {
				time.Sleep(d.Delay)
			}
			if d.Err != nil {
				return fmt.Errorf("store: wal sync: %w", d.Err)
			}
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: wal sync: %w", err)
		}
	}
	return nil
}

// close flushes and closes the file.
func (w *walWriter) close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// replayWAL reads records from the log at path, invoking fn for each intact
// record in order. A truncated or corrupt tail — the expected shape of a
// crash — ends replay silently; corruption in the middle of the log is
// still reported as corruption because records after it cannot be trusted.
func replayWAL(path string, fn func(record []byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: read wal: %w", err)
	}
	r := wire.NewReader(data)
	for r.Len() > 0 {
		payload := r.Frame()
		if r.Err() != nil {
			// A damaged final record is a torn write from a crash: stop.
			return nil
		}
		if err := fn(payload); err != nil {
			return err
		}
	}
	return nil
}

var _ io.Writer = (*bufio.Writer)(nil) // interface sanity anchor
