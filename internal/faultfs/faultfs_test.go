package faultfs

import (
	"bytes"
	"errors"
	"io/fs"
	"strings"
	"testing"
)

// drive runs a fixed little workload against an FS, ignoring injected
// errors (the schedule decides what sticks).
func drive(t *testing.T, f FS) {
	t.Helper()
	w, err := f.Create("a.tmp")
	if err != nil {
		return
	}
	w.Write([]byte("hello "))
	w.Write([]byte("world"))
	w.Sync()
	w.Close()
	f.Rename("a.tmp", "a")
	if w, err := f.Append("log"); err == nil {
		w.Write([]byte("r1"))
		w.Sync()
		w.Write([]byte("r2"))
		w.Close()
	}
}

func TestMemCleanRoundTrip(t *testing.T) {
	m := NewMem(nil)
	drive(t, m)
	got, err := m.ReadFile("a")
	if err != nil {
		t.Fatalf("ReadFile(a): %v", err)
	}
	if string(got) != "hello world" {
		t.Fatalf("a = %q, want %q", got, "hello world")
	}
	names, err := m.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	want := []string{"a", "log"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("List = %v, want %v", names, want)
	}
	if _, err := m.ReadFile("a.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadFile(a.tmp) err = %v, want ErrNotExist", err)
	}
}

func TestMemCrashDropsUnsyncedTail(t *testing.T) {
	// No injector: crash drops everything after the last Sync.
	m := NewMem(nil)
	w, _ := m.Append("log")
	w.Write([]byte("synced"))
	w.Sync()
	w.Write([]byte("-volatile"))
	m.Crash()
	if _, err := m.ReadFile("log"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash ReadFile err = %v, want ErrCrashed", err)
	}
	m.Reopen()
	got, err := m.ReadFile("log")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "synced" {
		t.Fatalf("post-crash content = %q, want %q", got, "synced")
	}
}

func TestMemCrashTornTailIsPrefixOrCorrupt(t *testing.T) {
	// With an injector the crash keeps a deterministic prefix of the
	// unsynced suffix, possibly with one flipped byte; the durable part
	// always survives intact.
	for seed := uint64(1); seed <= 32; seed++ {
		inj := NewInjector(Profile{}, seed)
		m := NewMem(inj)
		w, _ := m.Append("log")
		w.Write([]byte("DUR|"))
		w.Sync()
		tail := []byte("abcdefghij")
		w.Write(tail)
		m.Crash()
		m.Reopen()
		got, err := m.ReadFile("log")
		if err != nil {
			t.Fatalf("seed %d: ReadFile: %v", seed, err)
		}
		if !bytes.HasPrefix(got, []byte("DUR|")) {
			t.Fatalf("seed %d: durable prefix lost: %q", seed, got)
		}
		kept := got[4:]
		if len(kept) > len(tail) {
			t.Fatalf("seed %d: kept %d bytes of a %d-byte tail", seed, len(kept), len(tail))
		}
		diff := 0
		for i := range kept {
			if kept[i] != tail[i] {
				diff++
			}
		}
		if diff > 1 {
			t.Fatalf("seed %d: %d corrupted bytes in torn tail, want ≤1", seed, diff)
		}
	}
}

func TestMemCrashAtEveryPoint(t *testing.T) {
	// Count ops in a clean pass, then re-run with CrashAt at every
	// point: the workload must observe the crash (some op fails) and
	// the post-crash filesystem must still be readable after Reopen.
	clean := NewInjector(Profile{}, 1)
	drive(t, NewMem(clean))
	n := clean.Ops()
	if n == 0 {
		t.Fatal("clean pass recorded no injectable ops")
	}
	for k := uint64(1); k <= n; k++ {
		inj := NewInjector(Profile{}, 1)
		inj.SetCrashAt(k)
		m := NewMem(inj)
		drive(t, m)
		if _, err := m.List(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash at %d: List err = %v, want ErrCrashed", k, err)
		}
		m.Reopen()
		if _, err := m.List(); err != nil {
			t.Fatalf("crash at %d: post-reopen List: %v", k, err)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func(seed uint64) string {
		inj := NewInjector(Profile{ShortWrite: 0.3}, seed)
		drive(t, NewMem(inj))
		return inj.TraceString()
	}
	if a, b := run(7), run(7); a != b {
		t.Fatalf("same seed, different traces:\n%s\nvs\n%s", a, b)
	}
	if a, b := run(7), run(8); a == b {
		t.Fatalf("different seeds, identical non-empty trace:\n%s", a)
	}
}

func TestShortWriteInjection(t *testing.T) {
	inj := NewInjector(Profile{ShortWrite: 1}, 1)
	m := NewMem(inj)
	w, err := m.Append("log")
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	p := []byte("0123456789")
	n, err := w.Write(p)
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Fault != faultShortWrite {
		t.Fatalf("Write err = %v, want InjectedError{shortwrite}", err)
	}
	if n <= 0 || n >= len(p) {
		t.Fatalf("short write accepted %d of %d bytes", n, len(p))
	}
	got, _ := m.Content("log")
	if !bytes.Equal(got, p[:n]) {
		t.Fatalf("content %q does not match accepted prefix %q", got, p[:n])
	}
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o, err := NewOS(dir)
	if err != nil {
		t.Fatalf("NewOS: %v", err)
	}
	drive(t, o)
	got, err := o.ReadFile("a")
	if err != nil {
		t.Fatalf("ReadFile(a): %v", err)
	}
	if string(got) != "hello world" {
		t.Fatalf("a = %q, want %q", got, "hello world")
	}
	names, err := o.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "log" {
		t.Fatalf("List = %v, want [a log]", names)
	}
	if err := o.Remove("log"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := o.ReadFile("log"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("removed file ReadFile err = %v, want ErrNotExist", err)
	}
}

// TestOSAppendSyncsDirOnlyOnCreate: an Append that creates its file is
// a namespace change and owes the directory fsync Rename and Remove
// pay; reopening an existing file owes none.
func TestOSAppendSyncsDirOnlyOnCreate(t *testing.T) {
	o, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatalf("NewOS: %v", err)
	}
	for _, step := range []struct {
		what      string
		wantSyncs uint64
	}{
		{"create", 1},
		{"reopen", 0},
		{"reopen again", 0},
	} {
		before := o.dirSyncs.Load()
		f, err := o.Append("wal")
		if err != nil {
			t.Fatalf("%s: Append: %v", step.what, err)
		}
		if got := o.dirSyncs.Load() - before; got != step.wantSyncs {
			t.Errorf("%s: %d directory fsync(s), want %d", step.what, got, step.wantSyncs)
		}
		if _, err := f.Write([]byte("x")); err != nil {
			t.Fatalf("%s: Write: %v", step.what, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("%s: Close: %v", step.what, err)
		}
	}
	// Both branches open in append mode: nothing was truncated.
	if got, err := o.ReadFile("wal"); err != nil || string(got) != "xxx" {
		t.Fatalf("ReadFile = (%q, %v), want xxx", got, err)
	}
	// The namespace changes that always owed one still pay it.
	before := o.dirSyncs.Load()
	if err := o.Rename("wal", "wal2"); err != nil {
		t.Fatal(err)
	}
	if err := o.Remove("wal2"); err != nil {
		t.Fatal(err)
	}
	if got := o.dirSyncs.Load() - before; got != 2 {
		t.Errorf("rename + remove: %d directory fsync(s), want 2", got)
	}
}

func TestOSRejectsEscapingNames(t *testing.T) {
	o, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatalf("NewOS: %v", err)
	}
	for _, name := range []string{"", "../x", "a/b", "..", "."} {
		if _, err := o.ReadFile(name); err == nil || !strings.Contains(err.Error(), "bad file name") {
			t.Fatalf("ReadFile(%q) err = %v, want bad-file-name", name, err)
		}
	}
}

func TestStableStringNames(t *testing.T) {
	wantOps := []string{"create", "append", "write", "sync", "close", "rename", "remove"}
	for i, want := range wantOps {
		if got := Op(i).String(); got != want {
			t.Fatalf("Op(%d) = %q, want %q", i, got, want)
		}
	}
	wantFaults := []string{"none", "crash", "shortwrite"}
	for i, want := range wantFaults {
		if got := Fault(i).String(); got != want {
			t.Fatalf("Fault(%d) = %q, want %q", i, got, want)
		}
	}
}
