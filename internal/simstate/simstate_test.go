package simstate

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wormcontain/internal/faultfs"
)

func payloadN(i int) []byte {
	return []byte(fmt.Sprintf("checkpoint-payload-%04d-%s", i, string(bytes.Repeat([]byte{byte('a' + i%26)}, 64))))
}

func TestDirSaveLoadRoundTrip(t *testing.T) {
	d := Open(faultfs.NewMem(nil))

	if _, _, err := d.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir Load: %v, want ErrNoCheckpoint", err)
	}
	for i := 0; i < 5; i++ {
		gen, err := d.Save(payloadN(i))
		if err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
		if want := uint64(i + 1); gen != want {
			t.Fatalf("Save %d: generation %d, want %d", i, gen, want)
		}
		got, ggen, err := d.Load()
		if err != nil {
			t.Fatalf("Load after save %d: %v", i, err)
		}
		if ggen != gen || !bytes.Equal(got, payloadN(i)) {
			t.Fatalf("Load after save %d: gen %d payload %q", i, ggen, got)
		}
	}

	// GC keeps exactly the newest keepGenerations.
	gens, err := d.scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != keepGenerations || gens[len(gens)-1] != 5 {
		t.Fatalf("generations after GC: %v, want newest %d of %d", gens, 5, keepGenerations)
	}
}

func TestDirRejectsEmptyPayload(t *testing.T) {
	d := Open(faultfs.NewMem(nil))
	if _, err := d.Save(nil); err == nil {
		t.Fatal("Save(nil) succeeded, want error")
	}
}

// TestDirSkipsCorruptGeneration corrupts the newest published file on a
// real filesystem and verifies Load falls back to the previous
// generation; with every generation corrupt, Load reports
// ErrNoCheckpoint rather than failing unrecoverably.
func TestDirSkipsCorruptGeneration(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Save(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}

	corrupt := func(gen uint64, mutate func([]byte) []byte) {
		name := filepath.Join(dir, ckptSeries.Name(gen))
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, mutate(data), 0o600); err != nil {
			t.Fatal(err)
		}
	}

	// Flipped payload bit: CRC mismatch.
	corrupt(2, func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b })
	got, gen, err := d.Load()
	if err != nil || gen != 1 || !bytes.Equal(got, payloadN(0)) {
		t.Fatalf("Load with corrupt newest: payload %q gen %d err %v, want fallback to gen 1", got, gen, err)
	}

	// Torn tail: short file.
	corrupt(1, func(b []byte) []byte { return b[:len(b)/2] })
	if _, _, err := d.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load with all generations corrupt: %v, want ErrNoCheckpoint", err)
	}

	// The directory still accepts new checkpoints after total corruption.
	if _, err := d.Save(payloadN(9)); err != nil {
		t.Fatalf("Save after corruption: %v", err)
	}
	got, _, err = d.Load()
	if err != nil || !bytes.Equal(got, payloadN(9)) {
		t.Fatalf("Load after recovery save: %q, %v", got, err)
	}
}

func TestDirIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README", "ckpt-12.ckpt", "ckpt-0000000000000003.ckpt.tmp", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	// ckpt-12.ckpt is not fixed-width and must not parse as a generation.
	if _, _, err := d.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load: %v, want ErrNoCheckpoint", err)
	}
	gen, err := d.Save(payloadN(0))
	if err != nil || gen != 1 {
		t.Fatalf("Save: gen %d err %v, want fresh generation 1", gen, err)
	}
	// GC swept the stray tmp; the foreign files survive untouched.
	if _, err := os.Stat(filepath.Join(dir, "ckpt-0000000000000003.ckpt.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stray tmp not collected: %v", err)
	}
	for _, name := range []string{"README", "notes.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("foreign file %s: %v", name, err)
		}
	}
}

// ckptGolden is ckpt-0000000000000001.ckpt as the pre-crashsafe Dir.Save
// wrote it for the payload "sim-state", spelled by hand: the checkpoint
// file format is these bytes, not whatever the current encoder emits.
var ckptGolden = []byte{
	0x09, 0x00, 0x00, 0x00, // payload length, u32 LE
	0xab, 0xe2, 0x2f, 0xaf, // CRC32-C of the payload, u32 LE
	's', 'i', 'm', '-', 's', 't', 'a', 't', 'e',
}

func TestCheckpointBytesGolden(t *testing.T) {
	mem := faultfs.NewMem(nil)
	if _, err := Open(mem).Save([]byte("sim-state")); err != nil {
		t.Fatal(err)
	}
	names, _ := mem.List()
	if len(names) != 1 || names[0] != "ckpt-0000000000000001.ckpt" {
		t.Fatalf("directory after one Save: %v", names)
	}
	if got, _ := mem.Content(names[0]); !bytes.Equal(got, ckptGolden) {
		t.Fatalf("checkpoint bytes\n got % x\nwant % x", got, ckptGolden)
	}
}

// TestLoadsParentLayout opens a directory laid out byte for byte as the
// pre-crashsafe code left it — two generations, the newest torn, and a
// temp file from an interrupted save — and requires the same answers
// that code gave: the older generation loads, the next save is
// generation 3 and reclaims the stray.
func TestLoadsParentLayout(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"ckpt-0000000000000001.ckpt":     ckptGolden,
		"ckpt-0000000000000002.ckpt":     ckptGolden[:len(ckptGolden)-3],
		"ckpt-0000000000000003.ckpt.tmp": ckptGolden[:5],
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, gen, err := d.Load()
	if err != nil || gen != 1 || string(got) != "sim-state" {
		t.Fatalf("Load = (%q, %d, %v), want (sim-state, 1, nil)", got, gen, err)
	}
	if gen, err := d.Save([]byte("next")); err != nil || gen != 3 {
		t.Fatalf("Save = (%d, %v), want generation 3", gen, err)
	}
	if gens, _ := d.scan(); len(gens) != 2 || gens[0] != 2 || gens[1] != 3 {
		t.Fatalf("generations after save: %v, want [2 3]", gens)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-0000000000000003.ckpt.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stray tmp not collected: %v", err)
	}
}
