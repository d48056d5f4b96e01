// Package durable makes the limiter's containment state survive
// crashes: an append-only write-ahead log of the limiter's logical
// inputs (Observe and Reinstate calls — every derived transition
// replays from those), plus periodic full snapshots. Startup recovery
// loads the newest valid snapshot and replays the WAL tail, truncating
// at the first torn or corrupt record instead of refusing to start.
// Framing, fsync and atomic publication are internal/crashsafe's; all
// file I/O goes through faultfs.FS, so the crash-injection suite can
// kill the store at every write, sync and rename point and prove the
// recovery invariant: the recovered state equals the pre-crash state
// with a suffix of acknowledged inputs applied — no invented scans, no
// refunded budgets.
package durable

import (
	"encoding/binary"

	"wormcontain/internal/core"
	"wormcontain/internal/crashsafe"
)

// maxRecordLen bounds a WAL record's payload so a corrupt length field
// cannot make the reader skip megabytes of log in one hop: anything
// larger than the biggest real record is corruption by definition.
const maxRecordLen = 64

// Record kinds. The WAL stores limiter *inputs*: removals, flags,
// denials and cycle rolls are all pure functions of the input prefix,
// so logging the inputs is both smaller and immune to replay drift.
const (
	recObserve   byte = 1 // [kind u8][src u32][dst u32][unixMs u64] = 17 bytes
	recReinstate byte = 2 // [kind u8][src u32] = 5 bytes
	recFailure   byte = 3 // layout identical to recObserve; sketch backend only
	recAlert     byte = 4 // [kind u8][src u32][origin u64][seq u64][unixMs u64] = 29 bytes
)

// openFrame appends an empty frame header and the record kind to b:
// records are encoded straight into the buffer they are journaled in and
// sealed where they lie (crashsafe.OpenFrame has why).
func openFrame(b []byte, kind byte) []byte {
	return append(crashsafe.OpenFrame(b), kind)
}

// appendObserve appends one framed Observe record to b.
func appendObserve(b []byte, src, dst uint32, unixMs int64) []byte {
	return appendContact(b, recObserve, src, dst, unixMs)
}

// appendFailure appends one framed ObserveFailure record to b. The
// sketch limiter is a pure function of its logical input stream exactly
// like the exact limiter, so a failure observation journals as compactly
// as a contact observation: 17 bytes, no register deltas.
func appendFailure(b []byte, src, dst uint32, unixMs int64) []byte {
	return appendContact(b, recFailure, src, dst, unixMs)
}

func appendContact(b []byte, kind byte, src, dst uint32, unixMs int64) []byte {
	b = openFrame(b, kind)
	b = binary.LittleEndian.AppendUint32(b, src)
	b = binary.LittleEndian.AppendUint32(b, dst)
	b = binary.LittleEndian.AppendUint64(b, uint64(unixMs))
	return crashsafe.SealFrame(b, 17)
}

// appendReinstate appends one framed Reinstate record to b.
func appendReinstate(b []byte, src uint32) []byte {
	b = openFrame(b, recReinstate)
	b = binary.LittleEndian.AppendUint32(b, src)
	return crashsafe.SealFrame(b, 5)
}

// appendAlert appends one framed fleet-alert record to b. Alerts are
// limiter inputs like observations: journaling the (origin, seq, src,
// time) tuple is enough for replay to rebuild both the removal mark
// and the dedup ledger a recovering fleet node re-serves to peers.
func appendAlert(b []byte, a core.Alert) []byte {
	b = openFrame(b, recAlert)
	b = binary.LittleEndian.AppendUint32(b, a.Src)
	b = binary.LittleEndian.AppendUint64(b, a.Origin)
	b = binary.LittleEndian.AppendUint64(b, a.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(a.UnixMs))
	return crashsafe.SealFrame(b, 29)
}

// walRecord is one decoded WAL record.
type walRecord struct {
	kind   byte
	src    uint32
	dst    uint32 // recObserve/recFailure only
	unixMs int64  // recObserve/recFailure/recAlert only
	origin uint64 // recAlert only
	seq    uint64 // recAlert only
}

// parseRecord decodes one payload, strictly: wrong lengths and unknown
// kinds are corruption.
func parseRecord(p []byte) (walRecord, bool) {
	if len(p) == 0 {
		return walRecord{}, false
	}
	switch p[0] {
	case recObserve, recFailure:
		if len(p) != 17 {
			return walRecord{}, false
		}
		return walRecord{
			kind:   p[0],
			src:    binary.LittleEndian.Uint32(p[1:5]),
			dst:    binary.LittleEndian.Uint32(p[5:9]),
			unixMs: int64(binary.LittleEndian.Uint64(p[9:17])),
		}, true
	case recReinstate:
		if len(p) != 5 {
			return walRecord{}, false
		}
		return walRecord{kind: recReinstate, src: binary.LittleEndian.Uint32(p[1:5])}, true
	case recAlert:
		if len(p) != 29 {
			return walRecord{}, false
		}
		return walRecord{
			kind:   recAlert,
			src:    binary.LittleEndian.Uint32(p[1:5]),
			origin: binary.LittleEndian.Uint64(p[5:13]),
			seq:    binary.LittleEndian.Uint64(p[13:21]),
			unixMs: int64(binary.LittleEndian.Uint64(p[21:29])),
		}, true
	default:
		return walRecord{}, false
	}
}

// decodeWAL scans data front to back, invoking fn (when non-nil) for
// each intact record, and returns the byte length of the valid prefix
// plus the record count. The scan ends at the first frame crashsafe.Scan
// rejects or whose payload is not a record — the truncation point
// recovery uses.
func decodeWAL(data []byte, fn func(walRecord)) (validBytes, records int) {
	return crashsafe.Scan(data, maxRecordLen, func(payload []byte) bool {
		rec, ok := parseRecord(payload)
		if ok && fn != nil {
			fn(rec)
		}
		return ok
	})
}
