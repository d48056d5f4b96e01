// Package faultfs extends the faultnet philosophy from the network to
// the filesystem: crash-safe storage (internal/crashsafe, and through
// it the limiter's WAL and snapshots and simulation checkpoints) talks
// to disk only through the small FS interface below, so tests can
// substitute a deterministic in-memory filesystem that crashes at any
// chosen write/sync/rename point, tears unsynced tails, delivers short
// writes and flips bits — while production uses the real OS with the
// fsync discipline (file fsync before rename, directory fsync after
// namespace changes) that crash-safe storage requires.
//
// Fault schedules follow the faultnet contract: every injectable
// operation consumes a fixed number of values from a seeded rng.PCG64
// stream, so the schedule is a pure function of (seed, operation
// sequence) and a seed reproduces a crash trace byte-for-byte.
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// FS is the filesystem surface crash-safe storage uses: a single flat
// state directory of whole files — snapshots and WAL segments,
// checkpoint generations. Implementations must be safe for concurrent
// use.
type FS interface {
	// List returns the base names of the files in the state directory,
	// sorted ascending.
	List() ([]string, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// Create opens name for writing, truncating any existing content —
	// the temp-file side of an atomic publish.
	Create(name string) (File, error)
	// Append opens name for appending, creating it (durably: a namespace
	// change like Rename) when absent — the WAL segment write path.
	Append(name string) (File, error)
	// Rename atomically replaces newname with oldname and makes the
	// namespace change durable (directory fsync on real filesystems).
	Rename(oldname, newname string) error
	// Remove deletes name and makes the removal durable.
	Remove(name string) error
}

// File is an open handle for writing (and nothing else: readers take
// whole files through FS.ReadFile).
type File interface {
	// Write appends/writes p and returns the bytes accepted.
	Write(p []byte) (int, error)
	// Sync forces written content to stable storage. Until Sync
	// returns, none of the preceding writes are guaranteed to survive
	// a crash.
	Sync() error
	// Close releases the handle. Close does NOT imply Sync.
	Close() error
}

// OS is the production FS: a real directory on the local filesystem.
// Rename, Remove and an Append that creates its file fsync the
// directory afterwards so namespace changes are as durable as the file
// contents callers fsync explicitly.
type OS struct {
	// Dir is the state directory. All names are base names inside it.
	Dir string

	dirSyncs atomic.Uint64 // directory fsyncs issued; tests read it
}

// NewOS returns an OS filesystem rooted at dir, creating the directory
// (mode 0700) when missing.
func NewOS(dir string) (*OS, error) {
	if dir == "" {
		return nil, fmt.Errorf("faultfs: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("faultfs: create state dir: %w", err)
	}
	return &OS{Dir: dir}, nil
}

// path resolves a base name inside the state directory, rejecting
// anything that would escape it.
func (o *OS) path(name string) (string, error) {
	if name == "" || name == "." || name == ".." ||
		name != filepath.Base(name) || strings.ContainsAny(name, "/\\") {
		return "", fmt.Errorf("faultfs: bad file name %q", name)
	}
	return filepath.Join(o.Dir, name), nil
}

// List implements FS.
func (o *OS) List() ([]string, error) {
	entries, err := os.ReadDir(o.Dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile implements FS.
func (o *OS) ReadFile(name string) ([]byte, error) {
	p, err := o.path(name)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// open opens name write-only with the given extra flags.
func (o *OS) open(name string, flag int) (File, error) {
	p, err := o.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, flag|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Create implements FS.
func (o *OS) Create(name string) (File, error) {
	return o.open(name, os.O_CREATE|os.O_TRUNC)
}

// Append implements FS. Creating the file is a namespace change: without
// the directory fsync, records fsynced to a fresh WAL segment could lose
// their directory entry to a power loss. A reopen owes none.
func (o *OS) Append(name string) (File, error) {
	f, err := o.open(name, os.O_APPEND)
	if !errors.Is(err, fs.ErrNotExist) {
		return f, err
	}
	if f, err = o.open(name, os.O_CREATE|os.O_APPEND); err != nil {
		return nil, err
	}
	if err := o.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Rename implements FS: rename + directory fsync, the atomic-replace
// idiom every crash-safe store uses for snapshot publication.
func (o *OS) Rename(oldname, newname string) error {
	op, err := o.path(oldname)
	if err != nil {
		return err
	}
	np, err := o.path(newname)
	if err != nil {
		return err
	}
	if err := os.Rename(op, np); err != nil {
		return err
	}
	return o.syncDir()
}

// Remove implements FS: remove + directory fsync.
func (o *OS) Remove(name string) error {
	p, err := o.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		return err
	}
	return o.syncDir()
}

// syncDir fsyncs the state directory so renames and removals survive a
// crash. Filesystems that cannot fsync a directory (some network
// mounts) surface fs.ErrInvalid here; that is reported, not swallowed —
// the operator should know the durability contract is weaker.
func (o *OS) syncDir() error {
	o.dirSyncs.Add(1)
	d, err := os.Open(o.Dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, fs.ErrInvalid) {
		// fs.ErrInvalid means the filesystem cannot fsync a directory
		// (some network mounts); everything else is a real failure.
		return err
	}
	return nil
}
