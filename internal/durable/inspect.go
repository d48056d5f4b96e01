package durable

import (
	"fmt"
	"io"

	"wormcontain/internal/core"
	"wormcontain/internal/faultfs"
)

// FileCheck is one state-directory file's verification result.
type FileCheck struct {
	// Name is the file's base name.
	Name string
	// Seq is its generation.
	Seq uint64
	// Bytes is the file size.
	Bytes int
	// Valid reports whether the file verified: full checksum + decode
	// for snapshots, no torn tail for WAL segments.
	Valid bool
	// ValidBytes is the checksummed prefix length (segments only).
	ValidBytes int
	// Records is the intact record count (segments only).
	Records int
	// Header is the payload's format, backend and host count (valid
	// snapshots only).
	Header core.SnapshotHeader
}

// Report is a read-only audit of a state directory — what wormgate
// fsck prints. The embedded RecoveryInfo is produced by the very same
// planReplay/replay code the serving path runs, so fsck's
// accounting and a subsequent startup's accounting always agree.
type Report struct {
	RecoveryInfo

	// Snapshots and Segments list every generation file found,
	// ascending.
	Snapshots []FileCheck
	Segments  []FileCheck
	// TempFiles lists leftover in-flight files (crashed snapshot
	// writes; harmless, GC'd at next Open).
	TempFiles []string

	// Config, CycleIndex and Stats describe the recovered limiter
	// (zero-valued when Fresh and nothing was replayable).
	Config     core.LimiterConfig
	CycleIndex uint64
	Stats      core.Stats
}

// Inspect audits dir without modifying it. Like Open it fails on a
// snapshot in the retired JSON format.
func Inspect(fsys faultfs.FS) (Report, error) {
	var rep Report
	sc, err := scanDir(fsys)
	if err != nil {
		return rep, err
	}
	rep.TempFiles = sc.tmps
	// Every snapshot is restored once, oldest first; the newest valid
	// one stays as the base recovery would have chosen, and the corrupt
	// ones after it are the ones recovery would have skipped to reach it.
	rec := recovered{info: RecoveryInfo{Fresh: true}, scan: sc}
	for _, seq := range sc.snaps {
		f, err := loadSnapshot(fsys, seq)
		if err != nil {
			return rep, err
		}
		rep.Snapshots = append(rep.Snapshots, FileCheck{
			Name: snapSeries.Name(seq), Seq: seq, Bytes: f.bytes, Valid: f.corrupt == nil, Header: f.header,
		})
		if f.corrupt != nil {
			rec.info.CorruptSnapshots++
			continue
		}
		rec.base(f.limiter, seq)
		rec.info.CorruptSnapshots = 0
	}
	for _, seq := range sc.segs {
		raw, err := fsys.ReadFile(walSeries.Name(seq))
		if err != nil {
			return rep, err
		}
		fc := FileCheck{Name: walSeries.Name(seq), Seq: seq, Bytes: len(raw)}
		fc.ValidBytes, fc.Records = decodeWAL(raw, nil)
		fc.Valid = fc.ValidBytes == len(raw)
		rep.Segments = append(rep.Segments, fc)
	}

	// Replay exactly as recovery would.
	nolog := func(string, ...any) {}
	rec.planReplay(nolog)
	if err := rec.replay(fsys, rec.limiter, nolog); err != nil {
		return rep, err
	}
	rep.RecoveryInfo = rec.info
	if rec.limiter != nil {
		rep.Config = rec.limiter.Config()
		rep.CycleIndex = rec.limiter.CycleIndex()
		rep.Stats = rec.limiter.Snapshot()
	}
	return rep, nil
}

// Write renders the report in the stable plain-text form wormgate fsck
// prints.
func (r Report) Write(w io.Writer) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	for _, fc := range r.Snapshots {
		if fc.Valid {
			p("snapshot %s  %d bytes  format %d  %v  %d host(s)  OK\n",
				fc.Name, fc.Bytes, fc.Header.Format, fc.Header.Backend, fc.Header.Hosts)
		} else {
			p("snapshot %s  %d bytes  CORRUPT\n", fc.Name, fc.Bytes)
		}
	}
	for _, fc := range r.Segments {
		if fc.Valid {
			p("wal      %s  %d bytes  %d records  OK\n", fc.Name, fc.Bytes, fc.Records)
		} else {
			p("wal      %s  %d bytes  %d records  TORN at byte %d (%d bytes unreachable)\n",
				fc.Name, fc.Bytes, fc.Records, fc.ValidBytes, fc.Bytes-fc.ValidBytes)
		}
	}
	for _, name := range r.TempFiles {
		p("temp     %s  (in-flight snapshot; removed at next open)\n", name)
	}
	if r.Fresh {
		p("recovery: fresh start (no usable prior state)\n")
		return
	}
	p("recovery: snapshot generation %d + %d segment(s), %d record(s) replayed",
		r.SnapshotSeq, r.ReplayedSegments, r.ReplayedRecords)
	if r.TruncatedBytes > 0 {
		p(", %d byte(s) truncated at record %d", r.TruncatedBytes, r.TruncatedAtRecord)
	}
	if r.CorruptSnapshots > 0 {
		p(", %d corrupt snapshot(s) skipped", r.CorruptSnapshots)
	}
	p("\nstate: cycle %d, %d active host(s), %d removed, %d flagged, %d observed, %d denied\n",
		r.CycleIndex, r.Stats.ActiveHosts, r.Stats.RemovedHosts, r.Stats.FlaggedHosts,
		r.Stats.TotalObserved, r.Stats.TotalDenied)
}
