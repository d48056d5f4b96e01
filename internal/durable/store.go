package durable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wormcontain/internal/core"
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
	NewLimiter func(start time.Time) (core.ContainmentLimiter, error)

	// Metrics, when non-nil, receives the wormgate_wal_*,
	// wormgate_snapshot_* and wormgate_recovery_* series.
	Metrics *telemetry.Registry

	// Logf receives recovery and degradation notices (default: drop).
	Logf func(format string, args ...any)

	// Now supplies wall time (default time.Now); tests pin it.
	Now func() time.Time
}

// Store journals a limiter's inputs to a WAL and checkpoints it with
// atomic snapshots. It implements core.Journal; attach-detach is
// managed internally — callers interact with the limiter as usual and
// with Sync/WriteSnapshot/Close here.
//
// Locking: Store.RecordObserve/RecordReinstate run under the limiter
// mutex and only take bufMu for an in-memory append — no I/O ever
// happens on the decision path. ioMu serializes flushes, snapshots and
// rotation; lock order is limiter.mu → bufMu, and ioMu is never held
// while taking the limiter mutex except via CheckpointState (which
// takes limiter.mu → bufMu inside the cut, preserving the order).
type Store struct {
	fs      faultfs.FS
	limiter core.ContainmentLimiter
	logf    func(string, ...any)
	now     func() time.Time
	info    RecoveryInfo

	bufMu       sync.Mutex
	pending     []byte // encoded frames awaiting flush
	spare       []byte // recycled flush buffer
	pendingRecs int
	appended    uint64 // records journaled since Open
	acked       uint64 // records durably on disk (WAL fsync or snapshot)

	ioMu   sync.Mutex
	seg    faultfs.File // open WAL segment (nil after rotation failure)
	seq    uint64       // current generation
	broken error        // sticky WAL failure; healed by a successful snapshot

	// metrics (atomics: read by telemetry func-series at scrape time)
	walAppends  atomic.Uint64 // records written to the WAL file
	walFsyncs   atomic.Uint64
	walBytes    atomic.Uint64
	snapWrites  atomic.Uint64
	lastSnapMs  atomic.Int64
	walDegraded atomic.Uint64 // flushes skipped while broken

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
// Open always finishes by writing a fresh snapshot generation and
// starting a new WAL segment: torn tails from the previous life are
// truncated logically, never rewritten in place, and old generations
// are garbage-collected (the previous one is kept as a fallback).
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
	now := opts.Now
	if now == nil {
		now = time.Now
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
	if rec.replayable {
		if err := replaySegments(fsys, limiter, rec.scan, rec.baseSeq, &rec.info, logf); err != nil {
			return nil, err
		}
	}
	if rec.info.ReplayedRecords > 0 {
		rec.info.Fresh = false
	}

	s := &Store{
		fs:      fsys,
		limiter: limiter,
		logf:    logf,
		now:     now,
		info:    rec.info,
		seq:     rec.scan.maxSeq, // next snapshot becomes maxSeq+1
		stop:    make(chan struct{}),
	}
	s.lastSnapMs.Store(now().UnixMilli())

	// Journal from here on; no traffic reaches the limiter before Open
	// returns, so the initial snapshot below cuts an empty journal.
	limiter.SetJournal(s)

	// Publish the recovered state as a brand-new generation. This is
	// what makes torn tails safe without ever truncating a file: the
	// old segment is abandoned, not appended to past its tear.
	s.ioMu.Lock()
	err = s.snapshotLocked()
	s.ioMu.Unlock()
	if err != nil {
		limiter.SetJournal(nil)
		return nil, fmt.Errorf("durable: initial snapshot: %w", err)
	}

	if opts.Metrics != nil {
		s.register(opts.Metrics)
	}
	if opts.FsyncInterval > 0 {
		s.wg.Add(1)
		go s.flushLoop(opts.FsyncInterval)
	}
	if opts.SnapshotInterval > 0 {
		s.wg.Add(1)
		go s.snapshotLoop(opts.SnapshotInterval)
	}
	return s, nil
}

// Limiter returns the recovered (and now journaled) limiter — whichever
// backend the state directory held, or the one Options.NewLimiter built.
func (s *Store) Limiter() core.ContainmentLimiter { return s.limiter }

// Recovery reports what startup recovery found.
func (s *Store) Recovery() RecoveryInfo { return s.info }

// RecordObserve implements core.Journal: encode and buffer, nothing
// else — this runs on the decision hot path under the limiter mutex.
func (s *Store) RecordObserve(src, dst uint32, unixMs int64) {
	s.bufMu.Lock()
	s.pending = appendObserve(s.pending, src, dst, unixMs)
	s.pendingRecs++
	s.appended++
	s.bufMu.Unlock()
}

// RecordFailure implements core.Journal: same hot-path discipline and
// byte cost as RecordObserve.
func (s *Store) RecordFailure(src, dst uint32, unixMs int64) {
	s.bufMu.Lock()
	s.pending = appendFailure(s.pending, src, dst, unixMs)
	s.pendingRecs++
	s.appended++
	s.bufMu.Unlock()
}

// RecordReinstate implements core.Journal.
func (s *Store) RecordReinstate(src uint32) {
	s.bufMu.Lock()
	s.pending = appendReinstate(s.pending, src)
	s.pendingRecs++
	s.appended++
	s.bufMu.Unlock()
}

// RecordAlert implements core.Journal: fleet alerts buffer with the
// same hot-path discipline as observations.
func (s *Store) RecordAlert(a core.Alert) {
	s.bufMu.Lock()
	s.pending = appendAlert(s.pending, a)
	s.pendingRecs++
	s.appended++
	s.bufMu.Unlock()
}

// Appended returns the number of records journaled since Open.
func (s *Store) Appended() uint64 {
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	return s.appended
}

// Acked returns the number of journaled records guaranteed durable: a
// crash after Acked()==n recovers at least the first n inputs.
func (s *Store) Acked() uint64 {
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	return s.acked
}

// Sync flushes buffered records to the WAL segment and fsyncs it — one
// group commit.
func (s *Store) Sync() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	return s.flushLocked()
}

// flushLocked drains the pending buffer into the segment. On failure
// the store goes into degraded mode: the segment may now end in a torn
// frame, so further appends to it would be unreachable after recovery —
// records keep accumulating in memory and the next successful snapshot
// (which captures the full state) restores durability.
func (s *Store) flushLocked() error {
	if s.broken != nil {
		s.walDegraded.Add(1)
		return s.broken
	}
	s.bufMu.Lock()
	if s.pendingRecs == 0 {
		s.bufMu.Unlock()
		return nil
	}
	buf, n := s.pending, s.pendingRecs
	s.pending, s.spare = s.spare[:0], nil
	s.pendingRecs = 0
	s.bufMu.Unlock()

	if err := s.writeSeg(buf); err != nil {
		s.setBroken(err)
		return err
	}
	s.bufMu.Lock()
	s.acked += uint64(n)
	s.bufMu.Unlock()
	s.walAppends.Add(uint64(n))
	s.walFsyncs.Add(1)
	s.walBytes.Add(uint64(len(buf)))
	s.spare = buf[:0]
	return nil
}

// writeSeg writes buf to the open segment and fsyncs it.
func (s *Store) writeSeg(buf []byte) error {
	if s.seg == nil {
		return fmt.Errorf("durable: no open WAL segment")
	}
	for len(buf) > 0 {
		n, err := s.seg.Write(buf)
		if err != nil {
			return err
		}
		buf = buf[n:]
	}
	return s.seg.Sync()
}

func (s *Store) setBroken(err error) {
	if s.broken == nil {
		s.broken = err
		s.logf("durable: WAL degraded (buffering in memory until next snapshot): %v", err)
	}
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
	// Cut point: the state is copied out and the journal cut under one
	// hold of the limiter mutex, so the snapshot equals base + exactly
	// the records before the cut.
	var tail []byte
	var tailRecs int
	var cutTotal uint64
	data, err := s.limiter.CheckpointState(func() {
		s.bufMu.Lock()
		tail, tailRecs = s.pending, s.pendingRecs
		s.pending, s.pendingRecs = nil, 0
		cutTotal = s.appended
		s.bufMu.Unlock()
	})
	if err != nil {
		return err
	}

	// Complete the old segment first: if the snapshot write below is
	// interrupted, recovery falls back to the previous snapshot plus
	// this now-complete segment. A degraded segment is left alone — its
	// tail is torn and the snapshot itself carries these records.
	if s.broken == nil && s.seg != nil && len(tail) > 0 {
		if err := s.writeSeg(tail); err != nil {
			s.setBroken(err)
		} else {
			s.bufMu.Lock()
			s.acked += uint64(tailRecs)
			s.bufMu.Unlock()
			s.walAppends.Add(uint64(tailRecs))
			s.walFsyncs.Add(1)
			s.walBytes.Add(uint64(len(tail)))
		}
	}

	newSeq := s.seq + 1
	tmp := snapName(newSeq) + tmpSuffix
	if err := s.writeFileSync(tmp, encodeSnapshot(data)); err != nil {
		_ = s.fs.Remove(tmp) // best effort; Open GCs stray tmps too
		return err
	}
	if err := s.fs.Rename(tmp, snapName(newSeq)); err != nil {
		return err
	}

	// The snapshot is durable: everything before the cut is safe even
	// if it never reached the WAL.
	s.bufMu.Lock()
	if cutTotal > s.acked {
		s.acked = cutTotal
	}
	s.bufMu.Unlock()
	s.snapWrites.Add(1)
	s.lastSnapMs.Store(s.now().UnixMilli())

	// Rotate to the new generation's segment. Failure here must not
	// ack anything further to the OLD segment — recovery ignores
	// segments older than the new snapshot — so it degrades the WAL.
	old := s.seg
	seg, err := s.fs.Append(walName(newSeq))
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
	s.gcLocked()
	return nil
}

// writeFileSync creates name, writes data fully and fsyncs + closes.
func (s *Store) writeFileSync(name string, data []byte) error {
	f, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	for len(data) > 0 {
		n, werr := f.Write(data)
		if werr != nil {
			f.Close()
			return werr
		}
		data = data[n:]
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gcLocked removes generations older than the previous one, plus stray
// temp files. Best-effort: GC failures only delay reclamation.
func (s *Store) gcLocked() {
	sc, err := scanDir(s.fs)
	if err != nil {
		return
	}
	keep := uint64(0)
	if s.seq > 0 {
		keep = s.seq - 1
	}
	for _, seq := range sc.snaps {
		if seq < keep {
			_ = s.fs.Remove(snapName(seq))
		}
	}
	for _, seq := range sc.segs {
		if seq < keep {
			_ = s.fs.Remove(walName(seq))
		}
	}
	for _, name := range sc.tmps {
		if name != snapName(s.seq+1)+tmpSuffix { // never our own in-flight tmp
			_ = s.fs.Remove(name)
		}
	}
}

// flushLoop is the group-commit ticker.
func (s *Store) flushLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			_ = s.Sync() // degradation is sticky-logged in flushLocked
		}
	}
}

// snapshotLoop takes periodic checkpoints.
func (s *Store) snapshotLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.WriteSnapshot(); err != nil {
				s.logf("durable: periodic snapshot failed: %v", err)
			}
		}
	}
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
	reg.CounterFunc("wormgate_snapshot_writes_total",
		"Full limiter snapshots published.",
		func() float64 { return float64(s.snapWrites.Load()) })
	reg.GaugeFunc("wormgate_snapshot_age_seconds",
		"Seconds since the last published snapshot.",
		func() float64 {
			return float64(s.now().UnixMilli()-s.lastSnapMs.Load()) / 1000
		})
	reg.GaugeFunc("wormgate_recovery_replayed_records",
		"WAL records replayed during the last startup recovery.",
		func() float64 { return float64(s.info.ReplayedRecords) })
	reg.GaugeFunc("wormgate_recovery_truncated_bytes",
		"Torn/corrupt WAL bytes truncated during the last startup recovery.",
		func() float64 { return float64(s.info.TruncatedBytes) })
}
