// Package crashsafe owns how bytes become durable: the checksummed
// frame every stored payload travels in, write-fully-then-fsync, the
// temp-file + fsync + atomic-rename publish, fixed-width generation
// file names with the directory scan that reads them back, and a
// CRC-framed append log. internal/durable (limiter WAL and snapshots),
// internal/simstate (simulation checkpoints), internal/experiments
// (Monte-Carlo progress) and wormgate's -state file are written from
// these pieces and add only their own policy.
//
// All I/O goes through faultfs.FS, so the crash-injection suites kill
// the filesystem at every operation and prove the layer's invariant:
// after a crash a published file reads as its previous content or the
// new one in full, and an append log as a prefix of whole records that
// includes every record whose Sync returned.
package crashsafe

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// FrameHeader is the size of a frame's header. Every stored payload —
// WAL record, snapshot, checkpoint generation, log record — is framed
//
//	[u32 LE payload length][u32 LE CRC32-C of payload][payload]
//
// with the Castagnoli polynomial (hardware-accelerated on amd64/arm64).
// A torn write leaves either a short frame (length runs past the data)
// or a checksum mismatch; both read as "end of valid prefix".
const FrameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpenFrame appends an empty frame header to b. The caller appends the
// payload behind it and seals the frame where it lies: the checksum
// routine makes the bytes it reads escape, so a payload built on the
// stack first would cost one heap allocation per record.
func OpenFrame(b []byte) []byte {
	return append(b, 0, 0, 0, 0, 0, 0, 0, 0)
}

// SealFrame fills in the header of the frame whose n-byte payload ends b.
func SealFrame(b []byte, n int) []byte {
	payload := b[len(b)-n:]
	h := b[len(b)-n-FrameHeader:]
	binary.LittleEndian.PutUint32(h[0:4], uint32(n))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(payload, castagnoli))
	return b
}

// AppendFrame appends one framed payload to b.
func AppendFrame(b, payload []byte) []byte {
	return SealFrame(append(OpenFrame(b), payload...), len(payload))
}

// frameAt validates the frame at the head of data and returns its
// payload: the one place a length field and a checksum are trusted.
func frameAt(data []byte, maxLen int) ([]byte, error) {
	if len(data) < FrameHeader {
		return nil, fmt.Errorf("crashsafe: frame header truncated: %d bytes", len(data))
	}
	n := int64(binary.LittleEndian.Uint32(data[0:4]))
	if n == 0 || n > int64(maxLen) || n > int64(len(data)-FrameHeader) {
		return nil, fmt.Errorf("crashsafe: frame length field %d (limit %d, %d bytes follow)",
			n, maxLen, len(data)-FrameHeader)
	}
	payload := data[FrameHeader : FrameHeader+int(n)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[4:8]); got != want {
		return nil, fmt.Errorf("crashsafe: frame checksum mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}

// Scan hands fn the payload of each intact frame of data, front to
// back, and returns the byte length of the valid prefix plus its frame
// count. A torn tail, flipped bit, truncated header or length above
// maxLen ends the scan at a clean frame boundary — the truncation point
// recovery uses — never in a panic or a read past the bad frame. maxLen
// is the caller's largest real record, so a corrupt length field cannot
// skip the rest of the log in one hop. fn returning false ends the scan
// before its frame: the framing held, the payload was not usable.
func Scan(data []byte, maxLen int, fn func(payload []byte) bool) (valid, frames int) {
	for valid < len(data) {
		payload, err := frameAt(data[valid:], maxLen)
		if err != nil || !fn(payload) {
			break
		}
		valid += FrameHeader + len(payload)
		frames++
	}
	return valid, frames
}

// DecodeFile validates a published file and returns its payload. Such a
// file is fsynced before the rename that publishes it, so a valid one is
// exactly one frame; anything else is corruption.
func DecodeFile(data []byte) ([]byte, error) {
	payload, err := frameAt(data, len(data))
	if err != nil {
		return nil, err
	}
	if trail := len(data) - FrameHeader - len(payload); trail != 0 {
		return nil, fmt.Errorf("crashsafe: %d bytes after the file's one frame", trail)
	}
	return payload, nil
}
