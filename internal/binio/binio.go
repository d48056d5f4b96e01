// Package binio is the little-endian byte codec the limiter snapshots
// (internal/core), the defense snapshots (internal/defense) and the
// simulation checkpoints (internal/sim) share:
// append helpers for the encoders and a bounds-checked, sticky-error
// Reader for the decoders. Both decode untrusted bytes, so the rules
// live once: every read verifies the remaining length first, a length
// prefix is verified against the bytes actually present before anything
// is allocated for it, and the first failure sticks — callers decode a
// whole section and check Err once.
package binio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU16 appends v little-endian.
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendF64 appends v's IEEE-754 bits little-endian.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendBool appends 1 for true, 0 for false — the only two bytes
// Reader.Bool accepts.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader is a decoding cursor over one payload. Every method takes the
// name of what is being read, for the error; after the first error all
// reads return zero values and Err reports it. A Reader is a plain
// value: copying one forks the cursor (a sizing pass can run ahead on a
// copy and leave the original where it was).
type Reader struct {
	b      []byte
	err    error
	format string
}

// NewReader returns a reader over data. format names the payload in
// errors, package prefix included ("core: limiter snapshot").
func NewReader(data []byte, format string) *Reader {
	return &Reader{b: data, format: format}
}

// Err returns the first error any read recorded.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Failf records a decoder-detected error (first one wins), prefixed
// with the format name, and returns the sticky error.
func (r *Reader) Failf(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("%s %s", r.format, fmt.Sprintf(format, args...))
	}
	return r.err
}

func (r *Reader) truncated(what string) {
	r.Failf("truncated reading %s (%d bytes left)", what, len(r.b))
}

// Bytes consumes n bytes and returns them, aliasing the payload.
func (r *Reader) Bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b) < n {
		r.truncated(what)
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// U8 reads one byte.
func (r *Reader) U8(what string) uint8 {
	v := r.Bytes(1, what)
	if v == nil {
		return 0
	}
	return v[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16(what string) uint16 {
	v := r.Bytes(2, what)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32(what string) uint32 {
	v := r.Bytes(4, what)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64(what string) uint64 {
	v := r.Bytes(8, what)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64(what string) float64 { return math.Float64frombits(r.U64(what)) }

// Bool decodes a bool strictly: only 0 and 1 are valid, so every
// accepted payload re-encodes to itself.
func (r *Reader) Bool(what string) bool {
	v := r.U8(what)
	if v > 1 {
		r.Failf("%s byte %d is not a boolean", what, v)
	}
	return v == 1
}

// Count reads a uint32 element count and verifies that elemSize bytes
// per element are actually present, so a hostile count cannot force an
// allocation larger than the payload that carries it.
func (r *Reader) Count(elemSize int, what string) int {
	n := r.U32(what)
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(len(r.b)) {
		r.truncated(what)
		return 0
	}
	return int(n)
}

// Done returns the sticky error, or an error if unread bytes remain: a
// canonical payload ends exactly where its last field does.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.Failf("has %d trailing bytes", len(r.b))
	}
	return r.err
}
