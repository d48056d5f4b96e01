package crashsafe

import (
	"bytes"
	"testing"
)

// FuzzScan feeds arbitrary bytes to the frame scanner under both
// max-length settings in use (the WAL's 64 and the log's). Required
// properties: never panic, never over-read, stop at a clean frame
// boundary (the valid prefix rescans to itself), accept nothing
// AppendFrame could not have written, and agree with DecodeFile on what
// a one-frame file is.
func FuzzScan(f *testing.F) {
	f.Add(logGolden)
	f.Add(logGolden[:len(logGolden)-3])                // torn tail
	f.Add([]byte{})                                    // empty
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})        // absurd length, short header
	f.Add(bytes.Repeat([]byte{0}, 64))                 // zero lengths
	f.Add(append(logGolden[:14:14], 0xde, 0xad, 0xbe)) // valid + garbage
	f.Add(AppendFrame(nil, bytes.Repeat([]byte{7}, 65)))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []int{64, maxLogRecord} {
			var re []byte
			valid, n := Scan(data, limit, func(p []byte) bool {
				if len(p) == 0 || len(p) > limit {
					t.Fatalf("limit %d: scanner yielded a %d-byte payload", limit, len(p))
				}
				re = AppendFrame(re, p)
				return true
			})
			if valid < 0 || valid > len(data) {
				t.Fatalf("limit %d: valid prefix %d outside input [0, %d]", limit, valid, len(data))
			}
			if !bytes.Equal(re, data[:valid]) {
				t.Fatalf("limit %d: re-encoded frames differ from the valid prefix", limit)
			}
			if v2, n2 := Scan(data[:valid], limit, func([]byte) bool { return true }); v2 != valid || n2 != n {
				t.Fatalf("limit %d: rescan of valid prefix = (%d, %d), want (%d, %d)", limit, v2, n2, valid, n)
			}
			if payload, err := DecodeFile(data); err == nil && len(payload) <= limit && (valid != len(data) || n != 1) {
				t.Fatalf("limit %d: DecodeFile accepts the input, Scan = (%d, %d)", limit, valid, n)
			}
		}
	})
}
