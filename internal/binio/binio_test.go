package binio

import (
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 0xab)
	b = AppendU16(b, 0xcafe)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 0x0123456789abcdef)
	b = AppendF64(b, math.Pi)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendU32(b, 2) // count of 3-byte elements
	b = append(b, 1, 2, 3, 4, 5, 6)
	if want := 1 + 2 + 4 + 8 + 8 + 1 + 1 + 4 + 6; len(b) != want {
		t.Fatalf("encoded %d bytes, want %d", len(b), want)
	}
	if b[1] != 0xfe || b[2] != 0xca {
		t.Fatalf("u16 not little-endian: % x", b[1:3])
	}
	if b[3] != 0xef || b[6] != 0xde {
		t.Fatalf("u32 not little-endian: % x", b[3:7])
	}

	r := NewReader(b, "test: payload")
	if v := r.U8("a"); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16("b"); v != 0xcafe {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32("c"); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64("d"); v != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.F64("e"); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if !r.Bool("f") || r.Bool("g") {
		t.Error("Bool round trip")
	}
	fork := *r
	if n := r.Count(3, "h"); n != 2 {
		t.Errorf("Count = %d", n)
	}
	if got := r.Bytes(6, "i"); len(got) != 6 || got[5] != 6 {
		t.Errorf("Bytes = % x", got)
	}
	if r.Len() != 0 || r.Done() != nil {
		t.Errorf("after the last field: %d left, Done = %v", r.Len(), r.Done())
	}
	// The fork stayed where it was taken.
	if fork.Len() != 10 || fork.U32("h") != 2 {
		t.Errorf("forked cursor moved with the original")
	}
}

func TestErrorsStickAndNameTheFormat(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, "test: payload")
	if r.U8("first") != 1 || r.U8("first") != 2 || r.Err() != nil {
		t.Fatal("in-bounds read failed")
	}
	if v := r.U32("second"); v != 0 {
		t.Errorf("short read returned %#x, want 0", v)
	}
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "test: payload truncated reading second (1 bytes left)") {
		t.Fatalf("Err = %v", err)
	}
	// Later reads and failures neither succeed nor replace the first error.
	if r.U8("third") != 0 || r.U16("third") != 0 || r.Bytes(1, "third") != nil || r.F64("third") != 0 || r.Bool("third") || r.Count(1, "third") != 0 {
		t.Error("read succeeded after an error")
	}
	if r.Failf("something else") != err || r.Done() != err {
		t.Error("first error was replaced")
	}

	if err := NewReader([]byte{0}, "test: payload").Done(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("trailing byte: Done = %v", err)
	}
	r = NewReader([]byte{2}, "test: payload")
	if r.Bool("flag"); r.Err() == nil || !strings.Contains(r.Err().Error(), "flag byte 2 is not a boolean") {
		t.Errorf("Bool(2): Err = %v", r.Err())
	}
	if NewReader(nil, "x").Bytes(-1, "negative") != nil {
		t.Error("negative length accepted")
	}
}

// TestCountChecksBeforeAllocation: a count is only returned if the
// elements it promises are present, so callers can size by it.
func TestCountChecksBeforeAllocation(t *testing.T) {
	b := AppendU32(nil, math.MaxUint32)
	b = append(b, make([]byte, 64)...)
	r := NewReader(b, "test: payload")
	if n := r.Count(16, "hosts"); n != 0 || r.Err() == nil {
		t.Fatalf("absurd count accepted: n=%d err=%v", n, r.Err())
	}
	r = NewReader(AppendU32(nil, 4), "test: payload")
	if n := r.Count(0, "empties"); n != 4 || r.Err() != nil {
		t.Fatalf("zero-size elements: n=%d err=%v", n, r.Err())
	}
}
