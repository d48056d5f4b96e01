package crashsafe

import (
	"errors"
	"fmt"
	"io/fs"
	"slices"

	"wormcontain/internal/faultfs"
)

// maxLogRecord bounds one log record's payload (Scan has why); real
// records are tens of bytes.
const maxLogRecord = 1 << 16

// Log is a CRC-framed append log of small records — the progress ledger
// a resumable Monte-Carlo experiment writes one record per completed
// replication. OpenLog replays the valid prefix and republishes it as a
// clean file, so a torn tail from a crash is truncated at a record
// boundary exactly once and never appended past.
//
// Failures are sticky: after the first write or sync error every later
// Append/Sync/Reset/Close returns it — appending after a possibly-torn
// frame would put records where recovery cannot reach them.
type Log struct {
	fsys     faultfs.FS
	name     string
	f        faultfs.File
	err      error
	appended int // records in the log, replayed plus appended this session
	synced   int // how many of those are guaranteed durable
}

// OpenLog opens (creating if absent) the log file name inside fsys and
// returns it with the records of the valid prefix.
func OpenLog(fsys faultfs.FS, name string) (*Log, [][]byte, error) {
	data, err := fsys.ReadFile(name)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("crashsafe: read log %s: %w", name, err)
	}
	var records [][]byte
	valid, _ := Scan(data, maxLogRecord, func(payload []byte) bool {
		records = append(records, slices.Clone(payload))
		return true
	})
	// Republish the valid prefix unconditionally: this truncates any torn
	// tail and clears the temp file of an interrupted previous open.
	l := &Log{fsys: fsys, name: name}
	if err := l.restart(data[:valid], len(records)); err != nil {
		return nil, nil, err
	}
	return l, records, nil
}

// restart publishes content as the whole log, so the file always ends
// at a clean record boundary, and opens it for appending.
func (l *Log) restart(content []byte, records int) error {
	if err := Publish(l.fsys, l.name, content); err != nil {
		return err
	}
	f, err := l.fsys.Append(l.name)
	if err != nil {
		return fmt.Errorf("crashsafe: open log %s for append: %w", l.name, err)
	}
	l.f = f
	l.appended, l.synced = records, records
	return nil
}

// fail records the log's first I/O failure, which every later call returns.
func (l *Log) fail(op string, err error) error {
	l.err = fmt.Errorf("crashsafe: log %s: %w", op, err)
	return l.err
}

// Append frames payload and writes it to the log. The record is
// readable after the next Sync survives; a crash before that loses it
// cleanly (the reader truncates at the record boundary).
func (l *Log) Append(payload []byte) error {
	if l.err != nil {
		return l.err
	}
	if len(payload) == 0 || len(payload) > maxLogRecord {
		return fmt.Errorf("crashsafe: log record of %d bytes (must be 1..%d)", len(payload), maxLogRecord)
	}
	if err := writeFull(l.f, AppendFrame(nil, payload)); err != nil {
		return l.fail("append", err)
	}
	l.appended++
	return nil
}

// Sync makes every appended record durable.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		return l.fail("sync", err)
	}
	l.synced = l.appended
	return nil
}

// Reset truncates the log to empty, published atomically like the open
// rewrite — the path a resuming experiment takes when the log's header
// no longer matches its configuration.
func (l *Log) Reset() error {
	if l.err != nil {
		return l.err
	}
	if err := l.f.Close(); err != nil {
		return l.fail("reset", err)
	}
	if err := l.restart(nil, 0); err != nil {
		return l.fail("reset", err)
	}
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return l.fail("close", err)
	}
	return nil
}
