// Package durable makes the limiter's containment state survive
// crashes: an append-only write-ahead log of the limiter's logical
// inputs (Observe and Reinstate calls — every derived transition
// replays from those), plus periodic full snapshots published with the
// temp-file + fsync + atomic-rename idiom. Startup recovery loads the
// newest valid snapshot and replays the WAL tail, truncating at the
// first torn or corrupt record instead of refusing to start. All file
// I/O goes through faultfs.FS, so the crash-injection suite can kill
// the store at every write, sync and rename point and prove the
// recovery invariant: the recovered state equals the pre-crash state
// with a suffix of acknowledged inputs applied — no invented scans, no
// refunded budgets.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"wormcontain/internal/core"
)

// Every WAL record and every snapshot is framed the same way:
//
//	[u32 LE payload length][u32 LE CRC32-C of payload][payload]
//
// The CRC is Castagnoli (hardware-accelerated on amd64/arm64), the
// polynomial every modern storage system uses for exactly this job. A
// torn write leaves either a short frame (length runs past the data)
// or a checksum mismatch; both read as "end of valid prefix".
const frameHeader = 8

// maxRecordLen bounds a WAL record's payload so a corrupt length field
// cannot make the reader skip megabytes of log in one hop: anything
// larger than the biggest real record is corruption by definition.
const maxRecordLen = 64

// maxSnapshotLen bounds a snapshot payload (1 GiB — far above any real
// limiter state, small enough to reject garbage lengths outright).
const maxSnapshotLen = 1 << 30

// Record kinds. The WAL stores limiter *inputs*: removals, flags,
// denials and cycle rolls are all pure functions of the input prefix,
// so logging the inputs is both smaller and immune to replay drift.
const (
	recObserve   byte = 1 // [kind u8][src u32][dst u32][unixMs u64] = 17 bytes
	recReinstate byte = 2 // [kind u8][src u32] = 5 bytes
	recFailure   byte = 3 // layout identical to recObserve; sketch backend only
	recAlert     byte = 4 // [kind u8][src u32][origin u64][seq u64][unixMs u64] = 29 bytes
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one framed payload to b.
func appendFrame(b, payload []byte) []byte {
	b = append(b, make([]byte, frameHeader)...)
	return sealFrame(append(b, payload...), len(payload))
}

// Records are encoded straight into the buffer they are journaled in —
// an empty header, then the payload — and sealed where they lie: the
// checksum routine makes the bytes it reads escape, so a payload built
// on the stack first would cost one heap allocation per record.

// openFrame appends an empty frame header and the record kind to b.
func openFrame(b []byte, kind byte) []byte {
	return append(b, 0, 0, 0, 0, 0, 0, 0, 0, kind)
}

// sealFrame fills in the header of the frame whose n-byte payload ends b.
func sealFrame(b []byte, n int) []byte {
	payload := b[len(b)-n:]
	h := b[len(b)-n-frameHeader:]
	binary.LittleEndian.PutUint32(h[0:4], uint32(n))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(payload, castagnoli))
	return b
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
	return sealFrame(b, 17)
}

// appendReinstate appends one framed Reinstate record to b.
func appendReinstate(b []byte, src uint32) []byte {
	b = openFrame(b, recReinstate)
	b = binary.LittleEndian.AppendUint32(b, src)
	return sealFrame(b, 5)
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
	return sealFrame(b, 29)
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
// plus the record count. It never panics and never reads past the
// first invalid frame: a torn tail, flipped bit, truncated header or
// absurd length all terminate the scan at a clean record boundary —
// the truncation point recovery uses.
func decodeWAL(data []byte, fn func(walRecord)) (validBytes, records int) {
	off := 0
	for {
		rest := len(data) - off
		if rest < frameHeader {
			return off, records
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		if n == 0 || n > maxRecordLen || int(n) > rest-frameHeader {
			return off, records
		}
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			return off, records
		}
		rec, ok := parseRecord(payload)
		if !ok {
			return off, records
		}
		if fn != nil {
			fn(rec)
		}
		off += frameHeader + int(n)
		records++
	}
}

// encodeSnapshot frames a limiter snapshot payload.
func encodeSnapshot(payload []byte) []byte {
	return appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
}

// decodeSnapshot validates a snapshot file and returns its payload.
// Snapshots are fsynced before the rename that publishes them, so a
// valid file is exactly one frame; anything else is corruption.
func decodeSnapshot(data []byte) ([]byte, error) {
	if len(data) < frameHeader {
		return nil, fmt.Errorf("durable: snapshot truncated: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n == 0 || n > maxSnapshotLen || int(n) != len(data)-frameHeader {
		return nil, fmt.Errorf("durable: snapshot length field %d does not match file size %d",
			n, len(data))
	}
	payload := data[frameHeader:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[4:8]); got != want {
		return nil, fmt.Errorf("durable: snapshot checksum mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}
