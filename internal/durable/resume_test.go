package durable

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"wormcontain/internal/faultfs"
	"wormcontain/internal/telemetry"
)

// closedDir returns a state directory as a clean shutdown leaves it:
// generations 1 (Open's) and 2 (Close's), a few hosts in the snapshot,
// and the live state it holds.
func closedDir(t *testing.T) (*faultfs.Mem, []byte) {
	t.Helper()
	m := faultfs.NewMem(nil)
	s := openMem(t, m, Options{})
	for src := uint32(1); src <= 5; src++ {
		s.Limiter().Observe(src, 100+src, testStart)
	}
	want := mustState(t, s.Limiter())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return m, want
}

// openCounted opens the directory and returns the store with the number
// of snapshots it published while opening.
func openCounted(t *testing.T, m *faultfs.Mem) (*Store, float64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s := openMem(t, m, Options{Metrics: reg})
	return s, metricValue(t, reg, "wormgate_snapshot_writes_total")
}

func listed(m *faultfs.Mem) string {
	names, _ := m.List()
	return fmt.Sprint(names)
}

// TestCleanReopenPublishesNothing: a directory with nothing to heal is
// read and not rewritten. The restart lists the same files, publishes
// no snapshot, journals on into the newest generation's segment, and
// its first snapshot publishes the generation after it with the one
// before kept as the fallback.
func TestCleanReopenPublishesNothing(t *testing.T) {
	m, want := closedDir(t)
	before := listed(m)

	s, writes := openCounted(t, m)
	if after := listed(m); after != before {
		t.Fatalf("clean reopen changed the directory: %s -> %s", before, after)
	}
	if writes != 0 {
		t.Fatalf("clean reopen published %v snapshot(s), want 0", writes)
	}
	if info := s.Recovery(); info.Fresh || info.SnapshotSeq != 2 || info.ReplayedRecords != 0 {
		t.Fatalf("recovery info = %+v, want generation 2 and nothing replayed", info)
	}
	if got := mustState(t, s.Limiter()); !bytes.Equal(got, want) {
		t.Fatal("resumed state differs from the one closed")
	}

	// A record after the resume lands in generation 2's segment, and a
	// crash recovers it from there.
	s.Limiter().Observe(9, 900, testStart)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want = mustState(t, s.Limiter())
	m.Crash()
	m.Reopen()
	s2, writes := openCounted(t, m)
	if info := s2.Recovery(); info.SnapshotSeq != 2 || info.ReplayedSegments != 1 || info.ReplayedRecords != 1 {
		t.Fatalf("recovery info = %+v, want generation 2 plus one record of its segment", info)
	}
	if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
		t.Fatal("record journaled after a resume was not recovered")
	}
	if writes != 0 {
		t.Fatalf("reopen after a crash with a small intact segment published %v snapshot(s), want 0", writes)
	}

	if err := s2.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	wantNames := fmt.Sprint([]string{snapSeries.Name(2), snapSeries.Name(3), walSeries.Name(2), walSeries.Name(3)})
	if got := listed(m); got != wantNames {
		t.Fatalf("after the first snapshot: %s, want %s (generation 2 kept as the fallback)", got, wantNames)
	}
}

// TestReopenHealsByPublishing: each thing recovery has to heal makes
// Open publish the recovered state as a new generation, and the state
// is still the one the directory holds.
func TestReopenHealsByPublishing(t *testing.T) {
	write := func(m *faultfs.Mem, name string, data []byte) {
		f, err := m.Append(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(data)
		f.Sync()
		f.Close()
	}
	for _, tc := range []struct {
		name   string
		damage func(m *faultfs.Mem)
		seq    uint64 // the generation recovery loads
	}{
		{"corrupt newest snapshot", func(m *faultfs.Mem) {
			raw, _ := m.ReadFile(snapSeries.Name(2))
			raw[len(raw)/2] ^= 0x10
			f, _ := m.Create(snapSeries.Name(2))
			f.Write(raw)
			f.Sync()
			f.Close()
		}, 1},
		{"torn segment tail", func(m *faultfs.Mem) { write(m, walSeries.Name(2), []byte{0xde, 0xad}) }, 2},
		{"stray temp file", func(m *faultfs.Mem) { write(m, snapSeries.Name(7)+".tmp", []byte("half")) }, 2},
		{"segment past the base", func(m *faultfs.Mem) { write(m, walSeries.Name(3), nil) }, 2},
		{"segment after a gap", func(m *faultfs.Mem) { write(m, walSeries.Name(4), []byte{0xde, 0xad}) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, want := closedDir(t)
			tc.damage(m)
			s, writes := openCounted(t, m)
			if writes != 1 {
				t.Fatalf("Open published %v snapshot(s), want 1", writes)
			}
			if info := s.Recovery(); info.SnapshotSeq != tc.seq {
				t.Fatalf("recovery info = %+v, want generation %d loaded", info, tc.seq)
			}
			if got := mustState(t, s.Limiter()); !bytes.Equal(got, want) {
				t.Fatal("healed state differs from the one closed")
			}
			before := listed(m)
			if _, writes := openCounted(t, m); writes != 0 {
				t.Fatalf("the reopen after healing published %v snapshot(s), want 0", writes)
			}
			if after := listed(m); after != before {
				t.Fatalf("the reopen after healing changed the directory: %s -> %s", before, after)
			}
		})
	}

	t.Run("no valid snapshot", func(t *testing.T) {
		m := faultfs.NewMem(nil)
		if _, writes := openCounted(t, m); writes != 1 {
			t.Fatalf("a fresh directory's Open published %v snapshot(s), want 1 (its epoch)", writes)
		}
		if got, want := listed(m), fmt.Sprint([]string{snapSeries.Name(1), walSeries.Name(1)}); got != want {
			t.Fatalf("fresh directory after Open: %s, want %s", got, want)
		}
	})

	t.Run("segment larger than the snapshot", func(t *testing.T) {
		m, _ := closedDir(t)
		s, _ := openCounted(t, m)
		snap, _ := m.Content(snapSeries.Name(2))
		for i := uint32(0); len(mustSegment(t, m, 2)) <= len(snap); i++ {
			s.Limiter().Observe(1, 1000+i, testStart)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		want := mustState(t, s.Limiter())
		m.Crash()
		m.Reopen()
		s2, writes := openCounted(t, m)
		if writes != 1 {
			t.Fatalf("Open replaying a segment larger than its snapshot published %v snapshot(s), want 1", writes)
		}
		if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
			t.Fatal("folded state differs from the live one")
		}
	})
}

func mustSegment(t *testing.T, m *faultfs.Mem, seq uint64) []byte {
	t.Helper()
	b, ok := m.Content(walSeries.Name(seq))
	if !ok {
		t.Fatalf("%s missing", walSeries.Name(seq))
	}
	return b
}

// TestCrashLoopReplayIsBounded: a process that crashes before it ever
// snapshots appends each life's records to the one segment it resumed.
// The segment-larger-than-snapshot rule folds it into a new generation,
// so no restart replays more than the snapshot's size plus one life's
// records.
func TestCrashLoopReplayIsBounded(t *testing.T) {
	m, _ := closedDir(t)
	const perLife = 8
	frame := len(appendObserve(nil, 0, 0, 0))
	folds := 0
	var want []byte
	for life := 0; life < 30; life++ {
		s, writes := openCounted(t, m)
		if want != nil && !bytes.Equal(mustState(t, s.Limiter()), want) {
			t.Fatalf("life %d: recovered state differs from the last life's", life)
		}
		info := s.Recovery()
		snap, _ := m.Content(snapSeries.Name(info.SnapshotSeq))
		if replayed := info.ReplayedRecords * frame; replayed > len(snap)+perLife*frame {
			t.Fatalf("life %d replayed %d bytes of WAL on a %d-byte snapshot", life, replayed, len(snap))
		}
		if writes > 0 {
			folds++
		}
		for i := uint32(0); i < perLife; i++ {
			s.Limiter().Observe(uint32(life), i, testStart.Add(time.Duration(life)*time.Millisecond))
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		want = mustState(t, s.Limiter())
		m.Crash()
		m.Reopen()
	}
	if folds < 2 {
		t.Fatalf("30 crash-looping lives folded their WAL into a snapshot %d time(s), want at least 2", folds)
	}
}

// TestCrashDuringResumingOpen crashes a restart that resumes at each of
// its filesystem operations in turn: the reopen and fsync of the
// resumed segment, and the publish a failed resume falls back to. The
// previous life left records in that segment, synced; whatever the
// crashed Open did, the next recovery returns exactly that state.
func TestCrashDuringResumingOpen(t *testing.T) {
	crashed := 0
	for k := uint64(1); ; k++ {
		inj := faultfs.NewInjector(faultfs.Profile{}, 1)
		m := faultfs.NewMem(inj)
		s := openMem(t, m, Options{})
		s.Limiter().Observe(1, 100, testStart)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openMem(t, m, Options{})
		for src := uint32(2); src <= 4; src++ {
			s.Limiter().Observe(src, 100+src, testStart)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		want := mustState(t, s.Limiter())
		m.Crash()
		m.Reopen()

		at := inj.Ops() + k
		inj.SetCrashAt(at)
		s, err := Open(Options{FS: m}, testCfg, testStart)
		if inj.Ops() < at {
			if err != nil {
				t.Fatalf("Open with no crash in it failed: %v", err)
			}
			if crashed == 0 {
				t.Fatal("a resuming Open made no filesystem operation to crash at")
			}
			return
		}
		crashed++
		if err == nil {
			s.Limiter().Observe(9, 900, testStart) // never synced: lost with the crash
		}
		m.Crash()
		m.Reopen()
		r := openMem(t, m, Options{})
		if got := mustState(t, r.Limiter()); !bytes.Equal(got, want) {
			t.Fatalf("crash at operation %d of a resuming Open: recovered state differs from the synced one", k)
		}
	}
}
