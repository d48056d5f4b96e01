package durable

import (
	"bytes"
	"encoding/binary"
	"testing"

	"wormcontain/internal/crashsafe"
)

// scanLimits are the two max-length settings the shared scanner runs
// under: the WAL's and the append log's.
var scanLimits = []int{64, 1 << 16}

func TestWALEncodeDecodeRoundTrip(t *testing.T) {
	var b []byte
	b = appendObserve(b, 1, 2, 1234567890123)
	b = appendReinstate(b, 7)
	b = appendObserve(b, 0xffffffff, 0, -5)

	var got []walRecord
	valid, n := decodeWAL(b, func(r walRecord) { got = append(got, r) })
	if valid != len(b) || n != 3 {
		t.Fatalf("decodeWAL = (%d, %d), want (%d, 3)", valid, n, len(b))
	}
	want := []walRecord{
		{kind: recObserve, src: 1, dst: 2, unixMs: 1234567890123},
		{kind: recReinstate, src: 7},
		{kind: recObserve, src: 0xffffffff, dst: 0, unixMs: -5},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDecodeWALTruncatesAtCorruption(t *testing.T) {
	var b []byte
	b = appendObserve(b, 1, 2, 3)
	oneRec := len(b)
	b = appendObserve(b, 4, 5, 6)

	cases := []struct {
		name string
		data []byte
		// intact is the payload length of the second frame when the
		// damage is to what the payload means, not to its frame (0
		// otherwise): the shared scanner, which knows no record kinds,
		// accepts that frame under any limit it fits.
		intact int
	}{
		{"torn mid-frame", b[:oneRec+5], 0},
		{"torn mid-header", b[:oneRec+3], 0},
		{"flipped payload bit", flipByte(b, oneRec+crashsafe.FrameHeader+2), 0},
		{"flipped crc bit", flipByte(b, oneRec+5), 0},
		{"zero length", append(append([]byte{}, b[:oneRec]...), make([]byte, crashsafe.FrameHeader)...), 0},
		{"absurd length", overwriteLen(b, oneRec, 1<<30), 0},
		{"unknown kind", corruptKind(b, oneRec, 17), 17},
		{"longer than any record", corruptKind(b, oneRec, 65), 65},
	}
	for _, tc := range cases {
		valid, n := decodeWAL(tc.data, nil)
		if valid != oneRec || n != 1 {
			t.Errorf("%s: decodeWAL = (%d, %d), want (%d, 1)", tc.name, valid, n, oneRec)
		}
		for _, limit := range scanLimits {
			wantValid, wantN := oneRec, 1
			if tc.intact != 0 && tc.intact <= limit {
				wantValid, wantN = len(tc.data), 2
			}
			valid, n := crashsafe.Scan(tc.data, limit, func([]byte) bool { return true })
			if valid != wantValid || n != wantN {
				t.Errorf("%s: Scan(limit %d) = (%d, %d), want (%d, %d)", tc.name, limit, valid, n, wantValid, wantN)
			}
		}
	}
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x40
	return c
}

func overwriteLen(b []byte, off int, v uint32) []byte {
	c := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(c[off:], v)
	return c
}

// corruptKind rewrites the second record as n bytes with an unknown kind
// byte and a matching checksum: framing valid, payload not.
func corruptKind(b []byte, off, n int) []byte {
	c := append([]byte(nil), b[:off]...)
	bad := make([]byte, n)
	bad[0] = 99
	return crashsafe.AppendFrame(c, bad)
}

func TestSnapshotEnvelope(t *testing.T) {
	payload := []byte(`{"version":1}`)
	enc := crashsafe.AppendFrame(nil, payload)
	got, err := crashsafe.DecodeFile(enc)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("DecodeFile = (%q, %v), want (%q, nil)", got, err, payload)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", enc[:6]},
		{"truncated payload", enc[:len(enc)-2]},
		{"trailing garbage", append(append([]byte{}, enc...), 0)},
		{"flipped bit", flipByte(enc, crashsafe.FrameHeader+1)},
	} {
		if _, err := crashsafe.DecodeFile(tc.data); err == nil {
			t.Errorf("%s: DecodeFile accepted corrupt input", tc.name)
		}
		// The scanner never takes the same bytes for one clean frame.
		for _, limit := range scanLimits {
			valid, n := crashsafe.Scan(tc.data, limit, func([]byte) bool { return true })
			if valid == len(tc.data) && n == 1 {
				t.Errorf("%s: Scan(limit %d) accepted corrupt input as one whole frame", tc.name, limit)
			}
		}
	}
}
