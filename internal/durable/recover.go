package durable

import (
	"errors"
	"fmt"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/crashsafe"
	"wormcontain/internal/faultfs"
)

// State-directory layout. Generation N pairs snapshot snap-N with WAL
// segment wal-N: the segment holds exactly the inputs applied since
// that snapshot was cut. Recovery therefore loads the newest valid
// snapshot S and replays segments S, S+1, … in order.
var (
	snapSeries = crashsafe.Series{Prefix: "snap-", Suffix: ".snap"}
	walSeries  = crashsafe.Series{Prefix: "wal-", Suffix: ".log"}
)

// RecoveryInfo reports what startup recovery (and wormgate fsck, which
// runs the identical code path read-only) found in a state directory.
type RecoveryInfo struct {
	// Fresh is true when no usable prior state was found: the limiter
	// starts a new containment cycle.
	Fresh bool
	// SnapshotSeq is the generation of the snapshot recovery loaded
	// (meaningful when !Fresh).
	SnapshotSeq uint64
	// CorruptSnapshots counts snapshot files that failed checksum or
	// decode validation and were skipped for an older generation.
	CorruptSnapshots int
	// ReplayedSegments counts WAL segments replayed on top of the
	// snapshot.
	ReplayedSegments int
	// ReplayedRecords counts WAL records applied during replay.
	ReplayedRecords int
	// TruncatedBytes counts bytes discarded at the WAL tail: the torn
	// or corrupt suffix after the last intact record, plus any
	// unreachable later segments. Zero after a clean shutdown.
	TruncatedBytes int
	// TruncatedAtRecord is the record index (within the whole replay)
	// at which truncation happened, when TruncatedBytes > 0.
	TruncatedAtRecord int
}

// dirScan is the state directory's files, classified.
type dirScan struct {
	snaps  []uint64 // ascending
	segs   []uint64 // ascending
	tmps   []string
	maxSeq uint64
}

func scanDir(fsys faultfs.FS) (*dirScan, error) {
	gens, tmps, err := crashsafe.ScanDir(fsys, snapSeries, walSeries)
	if err != nil {
		return nil, err
	}
	sc := &dirScan{snaps: gens[0], segs: gens[1], tmps: tmps}
	for _, g := range gens {
		if len(g) > 0 && g[len(g)-1] > sc.maxSeq {
			sc.maxSeq = g[len(g)-1]
		}
	}
	return sc, nil
}

// recovered is the outcome of recoverState.
type recovered struct {
	// limiter is the snapshot-restored limiter (exact or sketch,
	// whichever backend the snapshot's header names), nil when
	// info.Fresh (the caller constructs the base limiter, then replays).
	limiter core.Backend
	info    RecoveryInfo
	scan    *dirScan
	// baseSeq is the generation replay starts from; replay is only
	// meaningful when limiter != nil or (info.Fresh && replayable).
	baseSeq uint64
	// replayable is false when no valid snapshot exists and the WAL
	// does not start at generation 0: the segments are unreachable.
	replayable bool
	// baseBytes is the base snapshot file's size, walBytes the WAL
	// bytes replay applied: Open weighs one against the other.
	baseBytes, walBytes int
}

// snapshotFile is one snapshot generation as loadSnapshot found it.
type snapshotFile struct {
	bytes int
	// corrupt is why the file failed its checksum or did not decode;
	// nil for a valid snapshot, whose header and restored limiter
	// follow.
	corrupt error
	header  core.SnapshotHeader
	limiter core.Backend
}

// loadSnapshot reads, verifies and restores one snapshot generation.
// Corruption is reported in the result, never as an error: only an I/O
// failure or a CRC-valid payload in the retired JSON format is fatal —
// the latter is intact state this build cannot read, and skipping it
// would start fresh and refund every host's budget.
func loadSnapshot(fsys faultfs.FS, seq uint64) (snapshotFile, error) {
	raw, err := fsys.ReadFile(snapSeries.Name(seq))
	if err != nil {
		return snapshotFile{}, fmt.Errorf("durable: read %s: %w", snapSeries.Name(seq), err)
	}
	f := snapshotFile{bytes: len(raw)}
	payload, err := crashsafe.DecodeFile(raw)
	if err == nil {
		f.header, err = core.ReadSnapshotHeader(payload)
	}
	if err == nil {
		f.limiter, err = core.RestoreAnyLimiter(payload)
	}
	if errors.Is(err, core.ErrLegacySnapshot) {
		return f, fmt.Errorf("durable: %s: %w", snapSeries.Name(seq), err)
	}
	f.corrupt = err
	return f, nil
}

// recoverState rebuilds the limiter from the state directory: newest
// valid snapshot, then WAL replay with tail truncation. It is strictly
// read-only (Open does the rewriting afterwards) and never fails on
// corrupt or torn state — only on I/O errors and legacy-format
// snapshots. A nil limiter with info.Fresh means no snapshot was
// usable.
func recoverState(fsys faultfs.FS, logf func(string, ...any)) (recovered, error) {
	sc, err := scanDir(fsys)
	if err != nil {
		return recovered{}, err
	}
	rec := recovered{info: RecoveryInfo{Fresh: true}, scan: sc}

	// Newest valid snapshot wins; corrupt ones are logged, metered and
	// skipped — never fatal.
	for i := len(sc.snaps) - 1; i >= 0 && rec.limiter == nil; i-- {
		seq := sc.snaps[i]
		f, err := loadSnapshot(fsys, seq)
		if err != nil {
			return recovered{}, err
		}
		if f.corrupt != nil {
			rec.info.CorruptSnapshots++
			logf("durable: skipping corrupt snapshot %s: %v", snapSeries.Name(seq), f.corrupt)
			continue
		}
		rec.base(f.limiter, seq)
		rec.baseBytes = f.bytes
	}
	rec.planReplay(logf)
	return rec, nil
}

// base records the snapshot recovery starts from.
func (rec *recovered) base(limiter core.Backend, seq uint64) {
	rec.limiter = limiter
	rec.info.Fresh = false
	rec.info.SnapshotSeq = seq
	rec.baseSeq = seq
}

// planReplay decides whether the WAL is reachable from the base.
// Without a valid snapshot it is only replayable from generation 0
// (each segment's records assume its snapshot as the base state): the
// caller builds a fresh base limiter and replay regenerates the full
// history. A WAL that starts later is unreachable — recovery starts
// fresh rather than failing.
func (rec *recovered) planReplay(logf func(string, ...any)) {
	segs := rec.scan.segs
	rec.replayable = rec.limiter != nil || (len(segs) > 0 && segs[0] == 0)
	if !rec.replayable && len(segs) > 0 {
		logf("durable: no valid snapshot and WAL does not start at generation 0; starting fresh")
	}
}

// replay applies the WAL planReplay found reachable to limiter — the
// base snapshot's, or the fresh one Open built when there was none
// (Inspect passes nil and only counts) — and settles info. Open and
// Inspect both end recovery here, so fsck reports exactly the
// accounting a restart would.
func (rec *recovered) replay(fsys faultfs.FS, limiter core.Backend, logf func(string, ...any)) error {
	if rec.replayable {
		n, err := replaySegments(fsys, limiter, rec.scan, rec.baseSeq, &rec.info, logf)
		if err != nil {
			return err
		}
		rec.walBytes = n
	}
	if rec.info.ReplayedRecords > 0 {
		rec.info.Fresh = false
	}
	return nil
}

// resumable reports whether Open can carry on in the base generation
// rather than publish a new one: there is a valid base snapshot and
// nothing to heal — no corrupt snapshot skipped, no byte truncated, no
// stray temp file, no generation past the base — and its segment is no
// larger than the snapshot. The last rule bounds replay: a crash loop
// that never reaches a snapshot appends to one segment, and once that
// outgrows the snapshot the next Open folds it into a new generation.
func (rec *recovered) resumable() bool {
	return rec.limiter != nil && rec.info.CorruptSnapshots == 0 && rec.info.TruncatedBytes == 0 &&
		len(rec.scan.tmps) == 0 && rec.scan.maxSeq == rec.baseSeq && rec.walBytes <= rec.baseBytes
}

// replaySegments applies WAL segments baseSeq, baseSeq+1, … to limiter,
// stopping at the first torn/corrupt record or sequence gap, and returns
// the bytes of the records it applied. It mutates info in place.
func replaySegments(fsys faultfs.FS, limiter core.Backend, sc *dirScan, baseSeq uint64,
	info *RecoveryInfo, logf func(string, ...any)) (int, error) {

	// A recFailure record replays only into a backend that observes
	// failures (the sketch with FailureM configured). One that does not —
	// a config downgrade mid-history — drops the record with a notice
	// rather than corrupting the replay position.
	failObs, _ := limiter.(core.FailureObserver)
	droppedFailures := 0
	apply := func(r walRecord) {
		if limiter == nil { // Inspect without a config: count, don't apply
			return
		}
		switch r.kind {
		case recObserve:
			limiter.Observe(r.src, r.dst, time.UnixMilli(r.unixMs).UTC())
		case recFailure:
			if failObs != nil {
				failObs.ObserveFailure(r.src, r.dst, time.UnixMilli(r.unixMs).UTC())
			} else {
				droppedFailures++
			}
		case recReinstate:
			limiter.Reinstate(r.src)
		case recAlert:
			limiter.ApplyAlert(core.Alert{
				Origin: r.origin, Seq: r.seq, Src: r.src, UnixMs: r.unixMs,
			})
		}
	}

	want := baseSeq
	truncated := false
	applied := 0
	for _, seq := range sc.segs {
		if seq < baseSeq {
			continue
		}
		name := walSeries.Name(seq)
		data, err := fsys.ReadFile(name)
		if err != nil {
			return 0, fmt.Errorf("durable: read %s: %w", name, err)
		}
		if truncated || seq != want {
			// Unreachable records: either a sequence gap (lost segment)
			// or a segment after a torn predecessor. Their inputs cannot
			// be applied without gapping the stream.
			if !truncated {
				logf("durable: WAL gap: expected segment %d, found %d; discarding %d+ bytes", want, seq, len(data))
				truncated = true
			}
			info.TruncatedBytes += len(data)
			continue
		}
		valid, recs := decodeWAL(data, apply)
		applied += valid
		info.ReplayedSegments++
		info.ReplayedRecords += recs
		if valid < len(data) {
			truncated = true
			info.TruncatedBytes += len(data) - valid
			info.TruncatedAtRecord = info.ReplayedRecords
			logf("durable: truncated %s at byte %d (record %d): %d torn/corrupt bytes discarded",
				name, valid, info.ReplayedRecords, len(data)-valid)
		}
		want = seq + 1
	}
	if droppedFailures > 0 {
		logf("durable: dropped %d failure record(s): recovered backend does not observe failures", droppedFailures)
	}
	return applied, nil
}
