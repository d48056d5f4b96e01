package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/durable"
)

func TestFsckUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := runFsck(nil, &out); err == nil || !strings.Contains(err.Error(), "-state-dir") {
		t.Errorf("missing -state-dir: err %v, want mention of the flag", err)
	}
	if err := runFsck([]string{"-state-dir", filepath.Join(t.TempDir(), "nope")}, &out); err == nil {
		t.Error("nonexistent directory: want error")
	}
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runFsck([]string{"-state-dir", file}, &out); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Errorf("file as -state-dir: err %v, want not-a-directory", err)
	}
}

func TestFsckEmptyDir(t *testing.T) {
	var out bytes.Buffer
	if err := runFsck([]string{"-state-dir", t.TempDir()}, &out); err != nil {
		t.Fatalf("fsck on empty dir: %v", err)
	}
	if !strings.Contains(out.String(), "fresh") {
		t.Errorf("empty-dir report should say fresh:\n%s", out.String())
	}
}

// TestFsckReportsSnapshotHeaderAndRefusesLegacy drives fsck over a real
// state directory: every snapshot line carries the payload's format,
// backend and host count, and a CRC-valid snapshot in the retired JSON
// format is an error that names it, not a "fresh start" report.
func TestFsckReportsSnapshotHeaderAndRefusesLegacy(t *testing.T) {
	dir := t.TempDir()
	s, err := durable.Open(durable.Options{Dir: dir}, core.LimiterConfig{M: 5, Cycle: time.Hour}, time.UnixMilli(0))
	if err != nil {
		t.Fatal(err)
	}
	s.Limiter().Observe(1, 2, time.UnixMilli(1))
	s.Limiter().Observe(3, 4, time.UnixMilli(2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runFsck([]string{"-state-dir", dir}, &out); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !strings.Contains(out.String(), "format 1  exact  2 host(s)  OK") {
		t.Errorf("fsck output lacks the snapshot header line:\n%s", out.String())
	}

	payload := []byte(`{"version":1,"m":5,"cycleMillis":3600000,"hosts":[]}`)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	legacy := filepath.Join(dir, "snap-0000000000000009.snap")
	if err := os.WriteFile(legacy, append(frame, payload...), 0o600); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = runFsck([]string{"-state-dir", dir}, &out)
	if !errors.Is(err, core.ErrLegacySnapshot) || !strings.Contains(err.Error(), filepath.Base(legacy)) {
		t.Fatalf("fsck over a legacy snapshot: err = %v, want ErrLegacySnapshot naming the file", err)
	}
}
