package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/crashsafe"
	"wormcontain/internal/faultfs"
	"wormcontain/internal/telemetry"
)

// Options configures a Store.
type Options struct {
	// Dir is the state directory; used to build a faultfs.OS filesystem
	// when FS is nil.
	Dir string

	// FS overrides the filesystem (tests inject faultfs.Mem here).
	FS faultfs.FS

	// FsyncInterval is the group-commit interval: buffered WAL records
	// are flushed and fsynced at most this often by a background
	// flusher. Records buffered between fsyncs are the acknowledged-
	// loss window — a crash loses at most FsyncInterval of inputs, and
	// only unacknowledged ones. Zero or negative disables the flusher;
	// the owner calls Sync explicitly.
	FsyncInterval time.Duration

	// SnapshotInterval bounds WAL growth: a full snapshot is taken at
	// this period, after which older generations are garbage-collected.
	// Zero or negative disables periodic snapshots (Close still takes a
	// final one).
	SnapshotInterval time.Duration

	// NewLimiter, when non-nil, constructs the base limiter used when
	// the directory holds no usable prior state — the hook that selects
	// the sketch backend (or any other ContainmentLimiter). Nil builds
	// the exact core.NewLimiter from the cfg passed to Open. When a
	// snapshot IS recovered, its embedded backend and configuration win
	// regardless of this factory: state continuity beats flags.
	NewLimiter func(start time.Time) (core.Backend, error)

	// Metrics, when non-nil, receives the wormgate_wal_*,
	// wormgate_snapshot_* and wormgate_recovery_* series.
	Metrics *telemetry.Registry

	// Logf receives recovery and degradation notices (default: drop).
	Logf func(format string, args ...any)
}

// laneCount is the number of independently locked journal buffers. It
// matches core's stripe count, and a record's lane comes from the same
// core.SourceHash, so observers on different limiter stripes never meet
// on a lane.
const (
	laneBits  = 6
	laneCount = 1 << laneBits
)

// lane is one journal buffer: encoded frames, each preceded by the
// 8-byte sequence number it took from Store.appended. Padded like
// core's stripes: the fields of two lanes are more than a cache line
// apart at any alignment.
type lane struct {
	mu  sync.Mutex
	buf []byte
	_   [128 - 32]byte
}

// Store journals a limiter's inputs to a WAL and checkpoints it with
// atomic snapshots. It implements core.Journal; attach-detach is
// managed internally — callers interact with the limiter as usual and
// with Sync/WriteSnapshot/Close here.
//
// Locking: the Record methods run with the limiter locked (the source's
// stripe or every stripe, in either backend) and take only the
// source's lane for an in-memory append — no I/O and no shared lock on
// the decision path. ioMu serializes flushes, snapshots and rotation and
// is outermost; under it Sync takes every lane (index order), and a
// snapshot cut takes every stripe and then every lane via
// CheckpointState. The order is ioMu → stripe(s) → lane(s) throughout.
//
// WAL order. Each record takes the next value of appended inside its
// lane's critical section, itself inside the limiter's, and a drain
// writes the records out by that number. With every lane held the
// numbers handed out so far are all in the lanes, so a drain is
// gap-free; and the sequence is a valid linearization of the inputs —
// one source's records share a stripe, so their numbers rise in apply
// order; records of different stripes commute; a roll or alert holds
// every stripe, so every other record is wholly before or after it.
// Replaying the WAL therefore reproduces the live state, and one
// goroutine's records are written in call order.
type Store struct {
	fs      faultfs.FS
	limiter core.Backend
	logf    func(string, ...any)
	info    RecoveryInfo

	lanes    [laneCount]lane
	appended atomic.Uint64 // records journaled since Open; the next record's sequence number
	acked    atomic.Uint64 // records durably on disk (WAL fsync or snapshot); written under ioMu

	ioMu    sync.Mutex
	seg     faultfs.File // open WAL segment (nil after rotation failure)
	seq     uint64       // current generation
	broken  error        // sticky WAL failure; healed by a successful snapshot
	drained uint64       // records swapped out of the lanes so far
	// Recycled between drains: the buffers last swapped out of the lanes
	// (they go back in at the next swap), each record's offset in the
	// segment write, and the write itself.
	swapped [laneCount][]byte
	offs    []int
	out     []byte

	// metrics (atomics: read by telemetry func-series at scrape time)
	walAppends  atomic.Uint64 // records written to the WAL file
	walFsyncs   atomic.Uint64
	walBytes    atomic.Uint64
	snapWrites  atomic.Uint64
	lastSnapMs  atomic.Int64
	walDegraded atomic.Uint64 // flushes dropped while broken

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Open recovers limiter state from the directory and returns a store
// journaling all further inputs. cfg and start describe the limiter to
// build when the directory holds no usable state; when a snapshot is
// recovered, its embedded configuration wins (state continuity beats
// flag changes) and a mismatch with cfg is logged. start is floored to
// the millisecond and cfg.Cycle must be a whole number of milliseconds
// — the WAL stores millisecond timestamps, and alignment makes replay
// reproduce every cycle-roll decision exactly.
//
// Open reads the state once and rewrites none of it when there is
// nothing to heal: the newest snapshot is valid, its WAL segment is
// intact and no larger than it, and there is no later generation and no
// stray temp file. It then journals on into that segment, fsynced once
// before Open returns, and the next snapshot publishes the generation
// after it. Otherwise — a fresh directory included — it finishes by
// writing a fresh snapshot generation and starting a new WAL segment:
// torn tails from the previous life are truncated logically, never
// rewritten in place, and old generations are garbage-collected (the
// previous one is kept as a fallback).
//
// Corrupt or torn files never fail Open; a checksum-valid snapshot in
// the retired JSON format does (core.ErrLegacySnapshot), before
// anything is written: that is intact state this build cannot read,
// not damage to recover around.
func Open(opts Options, cfg core.LimiterConfig, start time.Time) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cycle%time.Millisecond != 0 {
		return nil, fmt.Errorf("durable: cycle %v is not a whole number of milliseconds", cfg.Cycle)
	}
	fsys := opts.FS
	if fsys == nil {
		var err error
		if fsys, err = faultfs.NewOS(opts.Dir); err != nil {
			return nil, err
		}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rec, err := recoverState(fsys, logf)
	if err != nil {
		return nil, err
	}
	limiter := rec.limiter
	if limiter == nil {
		start = time.UnixMilli(start.UnixMilli()).UTC()
		if opts.NewLimiter != nil {
			limiter, err = opts.NewLimiter(start)
		} else {
			limiter, err = core.NewLimiter(cfg, start)
		}
		if err != nil {
			return nil, err
		}
	} else if limiter.Config() != cfg {
		logf("durable: state dir config %+v overrides requested %+v", limiter.Config(), cfg)
	}
	if err := rec.replay(fsys, limiter, logf); err != nil {
		return nil, err
	}

	s := &Store{
		fs:      fsys,
		limiter: limiter,
		logf:    logf,
		info:    rec.info,
		seq:     rec.scan.maxSeq, // a published snapshot becomes maxSeq+1
		stop:    make(chan struct{}),
	}
	s.lastSnapMs.Store(time.Now().UnixMilli())

	// Journal from here on; no traffic reaches the limiter before Open
	// returns, so a snapshot below cuts an empty journal.
	limiter.SetJournal(s)

	// A directory with nothing to heal goes on in its newest generation.
	// Anything else is published as a brand-new one: that is what makes
	// torn tails safe without ever truncating a file — the old segment
	// is abandoned, not appended to past its tear.
	s.ioMu.Lock()
	if !rec.resumable() || !s.resumeLocked(rec.baseSeq) {
		err = s.snapshotLocked()
	}
	s.ioMu.Unlock()
	if err != nil {
		limiter.SetJournal(nil)
		return nil, fmt.Errorf("durable: initial snapshot: %w", err)
	}

	if opts.Metrics != nil {
		s.register(opts.Metrics)
	}
	if opts.FsyncInterval > 0 {
		// The group commit; degradation is sticky-logged in flushLocked.
		s.every(opts.FsyncInterval, func() { _ = s.Sync() })
	}
	if opts.SnapshotInterval > 0 {
		s.every(opts.SnapshotInterval, func() {
			if err := s.WriteSnapshot(); err != nil {
				s.logf("durable: periodic snapshot failed: %v", err)
			}
		})
	}
	return s, nil
}

// Limiter returns the recovered (and now journaled) limiter — whichever
// backend the state directory held, or the one Options.NewLimiter built.
func (s *Store) Limiter() core.Backend { return s.limiter }

// Recovery reports what startup recovery found.
func (s *Store) Recovery() RecoveryInfo { return s.info }

// beginRecord starts one journal record: it locks src's lane and appends the
// next sequence number to it. The caller appends the frame and unlocks
// the lane. This is the decision hot path, run with the limiter locked —
// encode and buffer, nothing else.
func (s *Store) beginRecord(src uint32) *lane {
	ln := &s.lanes[core.SourceHash(src)>>(32-laneBits)]
	ln.mu.Lock()
	ln.buf = binary.LittleEndian.AppendUint64(ln.buf, s.appended.Add(1)-1)
	return ln
}

// RecordObserve implements core.Journal.
func (s *Store) RecordObserve(src, dst uint32, unixMs int64) {
	ln := s.beginRecord(src)
	ln.buf = appendObserve(ln.buf, src, dst, unixMs)
	ln.mu.Unlock()
}

// RecordFailure implements core.Journal: same byte cost as
// RecordObserve.
func (s *Store) RecordFailure(src, dst uint32, unixMs int64) {
	ln := s.beginRecord(src)
	ln.buf = appendFailure(ln.buf, src, dst, unixMs)
	ln.mu.Unlock()
}

// RecordReinstate implements core.Journal.
func (s *Store) RecordReinstate(src uint32) {
	ln := s.beginRecord(src)
	ln.buf = appendReinstate(ln.buf, src)
	ln.mu.Unlock()
}

// RecordAlert implements core.Journal.
func (s *Store) RecordAlert(a core.Alert) {
	ln := s.beginRecord(a.Src)
	ln.buf = appendAlert(ln.buf, a)
	ln.mu.Unlock()
}

// Appended returns the number of records journaled since Open.
func (s *Store) Appended() uint64 { return s.appended.Load() }

// Acked returns the number of journaled records guaranteed durable: a
// crash after Acked()==n recovers at least the first n inputs.
func (s *Store) Acked() uint64 { return s.acked.Load() }

// Sync flushes buffered records to the WAL segment and fsyncs it — one
// group commit.
func (s *Store) Sync() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return s.flushLocked()
}

// swapLanes takes every lane, swaps each buffer for the emptied one of
// the previous drain, and returns the half-open range of sequence
// numbers now in s.swapped — all of them, because a number is taken and
// its record appended inside one lane hold. It is the only part of a
// drain that stops journaling, and it copies nothing.
func (s *Store) swapLanes() (from, to uint64) {
	for i := range s.lanes {
		s.lanes[i].mu.Lock()
	}
	from, to = s.drained, s.appended.Load()
	for i := range s.lanes {
		ln := &s.lanes[i]
		ln.buf, s.swapped[i] = s.swapped[i][:0], ln.buf
	}
	for i := range s.lanes {
		s.lanes[i].mu.Unlock()
	}
	s.drained = to
	return from, to
}

// gather lays the swapped-out frames of records [from, to) out in
// sequence order, in two passes over the lanes: the first notes every
// frame's length at its sequence number and a running sum turns lengths
// into offsets, the second copies each frame to its offset.
func (s *Store) gather(from, to uint64) []byte {
	n := int(to - from)
	if cap(s.offs) < n+1 {
		s.offs = make([]int, n+1)
	}
	offs := s.offs[:n+1]
	offs[0] = 0
	s.eachSwapped(func(seq uint64, frame []byte) { offs[seq-from+1] = len(frame) })
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	if cap(s.out) < offs[n] {
		s.out = make([]byte, offs[n])
	}
	out := s.out[:offs[n]]
	s.eachSwapped(func(seq uint64, frame []byte) { copy(out[offs[seq-from]:], frame) })
	return out
}

// eachSwapped calls fn for every record in the swapped-out buffers.
func (s *Store) eachSwapped(fn func(seq uint64, frame []byte)) {
	for _, b := range s.swapped {
		for len(b) > 0 {
			end := 8 + crashsafe.FrameHeader + int(binary.LittleEndian.Uint32(b[8:]))
			fn(binary.LittleEndian.Uint64(b), b[8:end])
			b = b[end:]
		}
	}
}

// flushLocked drains the lanes into the segment. On failure the store
// goes into degraded mode: the segment may now end in a torn frame, so
// further appends to it would be unreachable after recovery. From then
// on a flush drains the lanes and drops what it drained — holding the
// records would buy nothing, the next successful snapshot carries the
// full state and restores durability — and Acked stays where it was
// until that snapshot.
func (s *Store) flushLocked() error {
	from, to := s.swapLanes()
	if s.broken != nil {
		s.walDegraded.Add(1)
		return s.broken
	}
	if from == to {
		return nil
	}
	return s.writeRecords(from, to)
}

var errNoSegment = errors.New("durable: no open WAL segment")

// writeRecords writes the swapped-out records [from, to) to the segment,
// fsyncs and acknowledges them; a failure degrades the WAL.
func (s *Store) writeRecords(from, to uint64) error {
	buf := s.gather(from, to)
	err := errNoSegment
	if s.seg != nil {
		err = crashsafe.WriteSync(s.seg, buf)
	}
	if err != nil {
		s.setBroken(err)
		return err
	}
	s.acked.Store(to)
	s.walAppends.Add(to - from)
	s.walFsyncs.Add(1)
	s.walBytes.Add(uint64(len(buf)))
	return nil
}

func (s *Store) setBroken(err error) {
	if s.broken == nil {
		s.broken = err
		s.logf("durable: WAL degraded (records not logged until next snapshot): %v", err)
	}
}

// resumeLocked makes generation base the live one again: its segment
// reopened for append and fsynced, so every record replay applied from
// it is durable before Open returns — as a republished snapshot would
// have made it. On failure it logs and reports false, and Open
// publishes a new generation instead.
func (s *Store) resumeLocked(base uint64) bool {
	seg, err := s.fs.Append(walSeries.Name(base))
	if err == nil {
		if err = seg.Sync(); err != nil {
			_ = seg.Close()
		}
	}
	if err != nil {
		s.logf("durable: resuming generation %d: %v; publishing a new one", base, err)
		return false
	}
	s.seg, s.seq = seg, base
	return true
}

// WriteSnapshot checkpoints the full limiter state as a new generation:
// complete the old segment, write the snapshot to a temp file, fsync,
// atomically rename, start a new segment, garbage-collect. On success
// every input up to the checkpoint cut is acknowledged and any WAL
// degradation is healed.
func (s *Store) WriteSnapshot() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	// Cut point: the state is copied out and the lanes swapped with the
	// limiter's world stopped, so the snapshot equals base + exactly the
	// records before the cut.
	var from, to uint64
	data, err := s.limiter.CheckpointState(func() { from, to = s.swapLanes() })
	if err != nil {
		return err
	}

	// Complete the old segment first: if the snapshot write below is
	// interrupted, recovery falls back to the previous snapshot plus
	// this now-complete segment. A degraded segment is left alone — its
	// tail is torn and the snapshot itself carries these records.
	if s.broken == nil && from != to {
		_ = s.writeRecords(from, to) // a failure degrades the WAL; the snapshot goes ahead
	}

	newSeq := s.seq + 1
	if err := crashsafe.Publish(s.fs, snapSeries.Name(newSeq), crashsafe.AppendFrame(nil, data)); err != nil {
		return err // a stray tmp left by a crash is reclaimed by the next GC
	}

	// The snapshot is durable: everything before the cut is safe even
	// if it never reached the WAL.
	s.acked.Store(to)
	s.snapWrites.Add(1)
	s.lastSnapMs.Store(time.Now().UnixMilli())

	// Rotate to the new generation's segment. Failure here must not
	// ack anything further to the OLD segment — recovery ignores
	// segments older than the new snapshot — so it degrades the WAL.
	old := s.seg
	seg, err := s.fs.Append(walSeries.Name(newSeq))
	if err != nil {
		s.seg = nil
		s.seq = newSeq
		s.setBroken(err)
	} else {
		s.seg = seg
		s.seq = newSeq
		s.broken = nil
	}
	if old != nil {
		_ = old.Close() // contents already fsynced; close errors are moot
	}
	// Keep the previous generation as a fallback.
	crashsafe.Reclaim(s.fs, s.seq-1, snapSeries, walSeries)
	return nil
}

// every starts a goroutine that calls tick once a period until Close.
func (s *Store) every(period time.Duration, tick func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				tick()
			}
		}
	}()
}

// Close detaches the journal, stops the background loops and writes a
// final snapshot so a graceful shutdown acknowledges every input. Safe
// to call once; the caller must have quiesced the limiter's traffic
// (shut the gateway down) first.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		s.limiter.SetJournal(nil)
		close(s.stop)
		s.wg.Wait()
		s.ioMu.Lock()
		defer s.ioMu.Unlock()
		s.closeErr = s.snapshotLocked()
		if s.seg != nil {
			if err := s.seg.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
			s.seg = nil
		}
	})
	return s.closeErr
}

// register exposes the store's series through the shared registry.
func (s *Store) register(reg *telemetry.Registry) {
	reg.CounterFunc("wormgate_wal_appends_total",
		"WAL records written to the log.",
		func() float64 { return float64(s.walAppends.Load()) })
	reg.CounterFunc("wormgate_wal_fsyncs_total",
		"WAL group commits (fsync batches).",
		func() float64 { return float64(s.walFsyncs.Load()) })
	reg.CounterFunc("wormgate_wal_bytes_total",
		"Bytes written to the WAL.",
		func() float64 { return float64(s.walBytes.Load()) })
	reg.CounterFunc("wormgate_wal_degraded_total",
		"Group commits dropped because the WAL is degraded (healed by the next snapshot).",
		func() float64 { return float64(s.walDegraded.Load()) })
	reg.GaugeFunc("wormgate_wal_pending_records",
		"Journaled records not yet durable (appended minus acknowledged): a backlog forming.",
		func() float64 {
			// Acked first: it never passes Appended, so the difference
			// cannot go negative between the two loads.
			acked := s.acked.Load()
			return float64(s.appended.Load() - acked)
		})
	reg.CounterFunc("wormgate_snapshot_writes_total",
		"Full limiter snapshots published.",
		func() float64 { return float64(s.snapWrites.Load()) })
	reg.GaugeFunc("wormgate_snapshot_age_seconds",
		"Seconds since this process last published a snapshot, or since it opened the state directory if it has published none.",
		func() float64 {
			return float64(time.Now().UnixMilli()-s.lastSnapMs.Load()) / 1000
		})
	reg.GaugeFunc("wormgate_recovery_replayed_records",
		"WAL records replayed during the last startup recovery.",
		func() float64 { return float64(s.info.ReplayedRecords) })
	reg.GaugeFunc("wormgate_recovery_truncated_bytes",
		"Torn/corrupt WAL bytes truncated during the last startup recovery.",
		func() float64 { return float64(s.info.TruncatedBytes) })
}
