package faultfs

import (
	"fmt"
	"io/fs"
	"sort"
	"sync"

	"wormcontain/internal/rng"
)

// Op identifies one injectable filesystem operation. Read-side
// operations (List, ReadFile) are never injected: they belong to the
// recovery path, which must see exactly what the crash left behind.
type Op int

const (
	// opCreate is FS.Create.
	opCreate Op = iota
	// opAppend is FS.Append.
	opAppend
	// opWrite is one File.Write call.
	opWrite
	// opSync is one File.Sync call.
	opSync
	// opClose is one File.Close call.
	opClose
	// opRename is FS.Rename.
	opRename
	// opRemove is FS.Remove.
	opRemove

	numOps
)

// String implements fmt.Stringer with stable names (they appear in
// crash traces tests compare byte-for-byte).
func (o Op) String() string {
	switch o {
	case opCreate:
		return "create"
	case opAppend:
		return "append"
	case opWrite:
		return "write"
	case opSync:
		return "sync"
	case opClose:
		return "close"
	case opRename:
		return "rename"
	case opRemove:
		return "remove"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Fault identifies one kind of injected filesystem failure.
type Fault int

const (
	// faultNone means the operation proceeds untouched.
	faultNone Fault = iota
	// faultCrash kills the filesystem at this operation: the op's
	// effect is applied at most partially (a Write keeps only a
	// deterministic prefix) and every subsequent operation fails with
	// ErrCrashed until Reopen.
	faultCrash
	// faultShortWrite persists only a prefix of the buffer and returns
	// an error without crashing — a full disk or interrupted write.
	faultShortWrite
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case faultNone:
		return "none"
	case faultCrash:
		return "crash"
	case faultShortWrite:
		return "shortwrite"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// ErrCrashed is returned by every operation after an injected crash
// until Reopen simulates the process restart.
var ErrCrashed = fmt.Errorf("faultfs: filesystem crashed")

// InjectedError is the error surfaced by injected non-crash failures,
// so callers can tell synthetic faults from real ones with errors.As.
type InjectedError struct {
	// Fault is the failure kind that produced this error.
	Fault Fault
	// Op is the operation it fired on.
	Op Op
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultfs: injected %s at %s", e.Fault, e.Op)
}

// Profile sets the per-operation probability of the non-crash faults.
// The zero Profile injects nothing (crashes are scheduled separately
// with SetCrashAt).
type Profile struct {
	// ShortWrite is P(a Write persists only a prefix and errors).
	ShortWrite float64
}

// Event is one fault decision: the n-th injectable operation presented
// to the injector and what it decided.
type Event struct {
	// Seq numbers decisions from 1 in the order they were drawn.
	Seq uint64
	// Op is the operation the decision applies to.
	Op Op
	// Fault is the injected fault (faultNone for a clean pass).
	Fault Fault
	// Aux parameterizes the fault (torn-prefix and corruption draws);
	// always drawn so the stream advances a fixed amount per op.
	Aux uint64
}

// String renders one trace line; two injectors with the same seed and
// operation sequence produce byte-identical traces.
func (e Event) String() string {
	return fmt.Sprintf("%d %s %s %d", e.Seq, e.Op, e.Fault, e.Aux)
}

// maxTrace bounds the recorded schedule (decisions beyond it still
// happen, just unrecorded).
const maxTrace = 1 << 14

// Injector draws a deterministic fault schedule for filesystem
// operations. Like faultnet, every decision consumes a fixed number of
// stream values (two), so the schedule depends only on the seed and the
// operation order — single-goroutine drivers replay bit-for-bit.
type Injector struct {
	mu      sync.Mutex
	profile Profile
	src     *rng.PCG64
	seq     uint64
	crashAt uint64 // fire faultCrash on this Seq; 0 = never
	trace   []Event
	counts  [numOps]uint64
}

// NewInjector returns an injector for the profile whose schedule is
// seeded by seed.
func NewInjector(profile Profile, seed uint64) *Injector {
	return &Injector{
		profile: profile,
		src:     rng.NewPCG64(seed, 0xd15c),
	}
}

// SetCrashAt schedules faultCrash on the n-th injectable operation
// (1-based); 0 disables crashing. The crash-injection suite first runs
// a campaign with 0 to count operations, then sweeps n across all of
// them.
func (in *Injector) SetCrashAt(n uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashAt = n
}

// Ops returns how many injectable operations have been presented.
func (in *Injector) Ops() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seq
}

// decide draws the decision for one operation: exactly two stream
// values per call, whatever fires.
func (in *Injector) decide(op Op) Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	in.counts[op]++
	e := Event{Seq: in.seq, Op: op}
	u := in.src.Float64()
	e.Aux = in.src.Uint64()
	switch {
	case in.crashAt != 0 && in.seq == in.crashAt:
		e.Fault = faultCrash
	case op == opWrite && u < in.profile.ShortWrite:
		e.Fault = faultShortWrite
	}
	if len(in.trace) < maxTrace {
		in.trace = append(in.trace, e)
	}
	return e
}

// draw2 returns two raw stream values — used by Mem.Crash for the
// per-file torn-tail draws, which are part of the same deterministic
// schedule.
func (in *Injector) draw2() (uint64, uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.src.Uint64(), in.src.Uint64()
}

// TraceString renders the schedule one event per line.
func (in *Injector) TraceString() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	var b []byte
	for _, e := range in.trace {
		b = append(b, e.String()...)
		b = append(b, '\n')
	}
	return string(b)
}

// memFile is one file's state: durable is what survives a crash, cur
// is what reads and the running process see. Sync promotes cur to
// durable; Crash tears the non-durable suffix.
type memFile struct {
	durable []byte
	cur     []byte
}

// Mem is a deterministic in-memory FS with explicit crash semantics:
//
//   - Write appends to the file's volatile content.
//   - Sync makes the current content durable.
//   - Crash keeps, for every file, the durable content plus a
//     deterministic random prefix of the unsynced suffix (the torn
//     tail a real disk leaves), occasionally flipping a byte inside
//     that kept-but-never-synced region — the partial sector write a
//     checksummed log must detect.
//   - Namespace operations (Create/Rename/Remove) are durable
//     immediately, matching the directory-fsync discipline of the OS
//     implementation. File CONTENT durability still requires Sync, so
//     a rename of an unsynced file publishes a file whose content can
//     tear — exactly the bug a snapshot writer that forgets to fsync
//     before rename would have.
//
// The zero value is not usable; construct with NewMem.
type Mem struct {
	mu      sync.Mutex
	inj     *Injector // nil = no injection
	files   map[string]*memFile
	crashed bool
}

var _ FS = (*Mem)(nil)

// NewMem returns an empty in-memory filesystem. inj may be nil for a
// fault-free memfs.
func NewMem(inj *Injector) *Mem {
	return &Mem{inj: inj, files: make(map[string]*memFile)}
}

// decide consults the injector (when present) and applies the crash
// latch. It returns the event and whether the operation may proceed.
func (m *Mem) decide(op Op) (Event, error) {
	if m.crashed {
		return Event{}, ErrCrashed
	}
	if m.inj == nil {
		return Event{}, nil
	}
	e := m.inj.decide(op)
	if e.Fault == faultCrash {
		m.crashed = true
	}
	return e, nil
}

// Crash simulates power loss: volatile state is torn per the injector's
// deterministic draws (files iterated in sorted name order, two draws
// per file) and the filesystem refuses all operations until Reopen.
// Without an injector the unsynced suffix is dropped entirely.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = true
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := m.files[name]
		tail := f.cur[len(f.durable):]
		keep := 0
		if m.inj != nil && len(tail) > 0 {
			a, b := m.inj.draw2()
			keep = int(a % uint64(len(tail)+1))
			kept := append(append([]byte(nil), f.durable...), tail[:keep]...)
			// One byte of the torn tail flips in a quarter of crashes:
			// the misdirected partial-sector write CRC32C must catch.
			if keep > 0 && b%4 == 0 {
				pos := len(f.durable) + int((b>>8)%uint64(keep))
				kept[pos] ^= byte(b>>16) | 1
			}
			f.cur = kept
		} else {
			f.cur = append([]byte(nil), f.durable...)
		}
		f.durable = append([]byte(nil), f.cur...)
	}
}

// Reopen simulates the process restart after Crash: the filesystem
// accepts operations again, exposing exactly the post-crash state.
func (m *Mem) Reopen() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = false
}

// List implements FS.
func (m *Mem) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile implements FS.
func (m *Mem) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f := m.files[name]
	if f == nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.cur...), nil
}

// Create implements FS.
func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.decide(opCreate); err != nil {
		return nil, err
	}
	if m.crashed {
		// The crash fired on this very operation: the file is not
		// created.
		return nil, ErrCrashed
	}
	m.files[name] = &memFile{}
	return &memHandle{m: m, name: name}, nil
}

// Append implements FS.
func (m *Mem) Append(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.decide(opAppend); err != nil {
		return nil, err
	}
	if m.crashed {
		return nil, ErrCrashed
	}
	if m.files[name] == nil {
		m.files[name] = &memFile{}
	}
	return &memHandle{m: m, name: name}, nil
}

// Rename implements FS. A crash at a rename point leaves the old name
// in place (crash-after-rename is the same filesystem state as a crash
// just before the next operation, which the sweep also visits).
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.decide(opRename); err != nil {
		return err
	}
	if m.crashed {
		return ErrCrashed
	}
	f := m.files[oldname]
	if f == nil {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.decide(opRemove); err != nil {
		return err
	}
	if m.crashed {
		return ErrCrashed
	}
	if m.files[name] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// memHandle is an open Mem file.
type memHandle struct {
	m    *Mem
	name string
}

// file returns the backing memFile, which survives renames (the handle
// follows the inode, not the name — but our single writer never writes
// through a renamed handle, so resolving by name at each op, with a
// rename-following fallback, keeps the model simple).
func (h *memHandle) file() *memFile {
	return h.m.files[h.name]
}

// Write implements File. A crash at a write point keeps a
// deterministic prefix of p (the torn page); a short write keeps a
// prefix and errors without crashing.
func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	e, err := h.m.decide(opWrite)
	if err != nil {
		return 0, err
	}
	f := h.file()
	if f == nil {
		return 0, &fs.PathError{Op: "write", Path: h.name, Err: fs.ErrNotExist}
	}
	switch e.Fault {
	case faultCrash:
		keep := int(e.Aux % uint64(len(p)+1))
		f.cur = append(f.cur, p[:keep]...)
		return keep, ErrCrashed
	case faultShortWrite:
		if len(p) > 1 {
			keep := 1 + int(e.Aux%uint64(len(p)-1))
			f.cur = append(f.cur, p[:keep]...)
			return keep, &InjectedError{Fault: faultShortWrite, Op: opWrite}
		}
	}
	f.cur = append(f.cur, p...)
	return len(p), nil
}

// Sync implements File. A crash at a sync point leaves the durable
// content unchanged — whether any of the pending bytes survive is
// decided by the torn-tail draw in Crash, exactly like a real kernel
// that may or may not have started writeback.
func (h *memHandle) Sync() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if _, err := h.m.decide(opSync); err != nil {
		return err
	}
	if h.m.crashed {
		return ErrCrashed
	}
	f := h.file()
	if f == nil {
		return &fs.PathError{Op: "sync", Path: h.name, Err: fs.ErrNotExist}
	}
	f.durable = append(f.durable[:0], f.cur...)
	return nil
}

// Close implements File.
func (h *memHandle) Close() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if _, err := h.m.decide(opClose); err != nil {
		return err
	}
	if h.m.crashed {
		return ErrCrashed
	}
	return nil
}

// Content returns the current (volatile) content of name, for tests.
func (m *Mem) Content(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return nil, false
	}
	return append([]byte(nil), f.cur...), true
}
