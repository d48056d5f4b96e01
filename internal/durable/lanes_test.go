package durable

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/faultfs"
	"wormcontain/internal/telemetry"
)

// The tests in this file are about what striping the limiter and
// journaling through per-lane buffers must not change: the WAL's bytes,
// its order being a linearization of the inputs under concurrent
// writers and cycle rolls, every record written exactly once, and a
// degraded store not hoarding what it will never write.

var updateWALGolden = flag.Bool("update-wal", false, "rewrite testdata/crashscript_wal.golden")

const walGoldenPath = "testdata/crashscript_wal.golden"

// TestCrashScriptWALGolden: the crash suite's script, driven from one
// goroutine, leaves the WAL segments it left before the journal had
// lanes — the golden was captured at the commit before. A sequential
// driver's records are written in call order, byte for byte.
func TestCrashScriptWALGolden(t *testing.T) {
	m := faultfs.NewMem(nil)
	s, err := Open(Options{FS: m}, crashCfg, crashStart)
	if err != nil {
		t.Fatal(err)
	}
	driveScript(s, crashScript())
	var got strings.Builder
	for _, seq := range []uint64{1, 2} { // Open's generation, and the script's rotation after input 12
		data, err := m.ReadFile(walSeries.Name(seq))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %s\n", walSeries.Name(seq), hex.EncodeToString(data))
	}
	if *updateWALGolden {
		if err := os.WriteFile(walGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(walGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("WAL segments differ from the golden:\n got %s\nwant %s", got.String(), want)
	}
}

// TestRollUnderTraffic: four goroutines on disjoint sources observe
// with timestamps that straddle two cycle boundaries — so rolls, which
// reset every stripe, race with per-stripe observations — with and
// without alerts and reinstates mixed in. After a Sync and a crash the
// recovered state equals the live one, and so does a fresh limiter fed
// the WAL: the journal's order is a linearization of what happened.
func TestRollUnderTraffic(t *testing.T) {
	cfg := core.LimiterConfig{M: 5, Cycle: time.Second, CheckFraction: 0.6}
	for _, mixed := range []bool{false, true} {
		t.Run(fmt.Sprintf("alerts+reinstates=%v", mixed), func(t *testing.T) {
			m := faultfs.NewMem(nil)
			s, err := Open(Options{FS: m}, cfg, testStart)
			if err != nil {
				t.Fatal(err)
			}
			l := s.Limiter()
			var wg sync.WaitGroup
			for w := uint32(0); w < 4; w++ {
				wg.Add(1)
				go func(w uint32) {
					defer wg.Done()
					for i := uint32(0); i < 3000; i++ {
						// 0 … 3 s in whole milliseconds: cycles 0, 1 and 2.
						at := testStart.Add(time.Duration(i) * time.Millisecond)
						src := w<<16 | i%40
						l.Observe(src, i%7, at)
						if mixed && i%50 == 0 {
							l.Reinstate(src)
							l.ApplyAlert(core.Alert{Origin: uint64(w), Seq: uint64(i), Src: src + 1, UnixMs: at.UnixMilli()})
						}
					}
				}(w)
			}
			wg.Wait()
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := l.CycleIndex(); got != 2 {
				t.Fatalf("cycle index %d, want 2", got)
			}
			want := mustState(t, l)

			fresh, err := core.NewLimiter(cfg, testStart)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := scanDir(m)
			if err != nil {
				t.Fatal(err)
			}
			var replayed RecoveryInfo
			if err := replaySegments(m, fresh, scan, 1, &replayed, func(string, ...any) {}); err != nil {
				t.Fatal(err)
			}
			if uint64(replayed.ReplayedRecords) != s.Appended() || replayed.TruncatedBytes != 0 {
				t.Fatalf("WAL replays %d records (%d bytes truncated), %d were journaled",
					replayed.ReplayedRecords, replayed.TruncatedBytes, s.Appended())
			}
			if got := mustState(t, fresh); !bytes.Equal(got, want) {
				t.Fatalf("a fresh limiter fed the WAL differs from the live one: live %+v, replayed %+v",
					l.Snapshot(), fresh.Snapshot())
			}

			m.Crash()
			m.Reopen()
			s2, err := Open(Options{FS: m}, cfg, testStart)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
				t.Fatalf("recovered state differs from the live one: live %+v, recovered %+v",
					l.Snapshot(), s2.Limiter().Snapshot())
			}
		})
	}
}

// keepFS never removes a file, so every WAL generation stays readable.
type keepFS struct{ faultfs.FS }

func (keepFS) Remove(string) error { return nil }

// TestConcurrentDrainGapFree: observers, a Sync loop and snapshot cuts
// all at once. Every record must reach exactly one segment — each
// generation decodes to its last byte and together they hold one record
// per call, every source's in the order it was sent — and a crash
// replays exactly the records after the last cut.
func TestConcurrentDrainGapFree(t *testing.T) {
	cfg := core.LimiterConfig{M: 1 << 20, Cycle: time.Hour}
	m := faultfs.NewMem(nil)
	s, err := Open(Options{FS: keepFS{m}}, cfg, testStart)
	if err != nil {
		t.Fatal(err)
	}
	l := s.Limiter()
	const workers, each, snapshots = 4, 4000, 6
	var calls atomic.Uint64
	var observers, syncer sync.WaitGroup
	stop := make(chan struct{})
	for w := uint32(0); w < workers; w++ {
		observers.Add(1)
		go func(w uint32) {
			defer observers.Done()
			for i := uint32(0); i < each; i++ {
				l.Observe(w<<16|i%16, i, testStart) // a source's destinations ascend
				calls.Add(1)
			}
		}(w)
	}
	syncer.Add(1)
	go func() {
		defer syncer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
					return
				}
			}
		}
	}()
	for k := 1; k <= snapshots; k++ {
		for calls.Load() < uint64(k*workers*each/(snapshots+1)) {
			time.Sleep(50 * time.Microsecond)
		}
		if err := s.WriteSnapshot(); err != nil {
			t.Fatalf("WriteSnapshot %d: %v", k, err)
		}
	}
	observers.Wait()
	close(stop)
	syncer.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.Appended(); got != workers*each || s.Acked() != got {
		t.Fatalf("appended/acked = %d/%d, want %d/%d", got, s.Acked(), workers*each, workers*each)
	}
	want := mustState(t, l)

	// All generations together: one record per call, per-source order kept.
	last := map[uint32]uint32{}
	total := 0
	for seq := uint64(1); seq <= snapshots+1; seq++ {
		data, err := m.ReadFile(walSeries.Name(seq))
		if err != nil {
			t.Fatal(err)
		}
		valid, n := decodeWAL(data, func(r walRecord) {
			if prev, seen := last[r.src]; seen && r.dst <= prev {
				t.Errorf("%s: source %#x sent %d after %d", walSeries.Name(seq), r.src, r.dst, prev)
			}
			last[r.src] = r.dst
		})
		if valid != len(data) {
			t.Fatalf("%s: %d of %d bytes decode", walSeries.Name(seq), valid, len(data))
		}
		total += n
	}
	if total != workers*each {
		t.Fatalf("the segments hold %d records for %d calls", total, workers*each)
	}

	// The newest snapshot counts the observations before its cut.
	newest, err := loadSnapshot(m, snapshots+1)
	if err != nil || newest.corrupt != nil {
		t.Fatalf("newest snapshot: %v, %v", err, newest.corrupt)
	}
	afterCut := workers*each - newest.limiter.Snapshot().TotalObserved

	m.Crash()
	m.Reopen()
	s2, err := Open(Options{FS: m}, cfg, testStart)
	if err != nil {
		t.Fatal(err)
	}
	if info := s2.Recovery(); info.ReplayedRecords != afterCut || info.TruncatedBytes != 0 {
		t.Fatalf("recovery replayed %d records (%d bytes truncated), want the %d after the last cut",
			info.ReplayedRecords, info.TruncatedBytes, afterCut)
	}
	if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from the live one")
	}
}

// walFailFS fails every write to a WAL segment while fail is set.
type walFailFS struct {
	faultfs.FS
	fail atomic.Bool
}

type walFailFile struct {
	faultfs.File
	fs *walFailFS
}

var errWALDisk = errors.New("injected WAL write error")

func (f *walFailFS) Append(name string) (faultfs.File, error) {
	file, err := f.FS.Append(name)
	return &walFailFile{file, f}, err
}

func (f *walFailFile) Write(p []byte) (int, error) {
	if f.fs.fail.Load() {
		return 0, errWALDisk
	}
	return f.File.Write(p)
}

// bufferedBytes is the memory the store's journal buffers hold.
func (s *Store) bufferedBytes() int {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	n := cap(s.out) + 8*cap(s.offs)
	for i := range s.lanes {
		s.lanes[i].mu.Lock()
		n += cap(s.lanes[i].buf) + cap(s.swapped[i])
		s.lanes[i].mu.Unlock()
	}
	return n
}

// TestDegradedStoreDropsRecords: after a WAL write failure the store
// cannot log until a snapshot heals it, so it must not keep what it
// drains: memory stays bounded across any number of Syncs, Appended
// keeps counting, Acked waits for the healing snapshot, and recovery
// after it equals the live state.
func TestDegradedStoreDropsRecords(t *testing.T) {
	cfg := core.LimiterConfig{M: 1 << 20, Cycle: time.Hour}
	m := faultfs.NewMem(nil)
	fsys := &walFailFS{FS: m}
	reg := telemetry.NewRegistry()
	s, err := Open(Options{FS: fsys, Metrics: reg}, cfg, testStart)
	if err != nil {
		t.Fatal(err)
	}
	l := s.Limiter()
	const batch = 4 * 512 // every round puts the same load on every lane
	sent := uint32(0)
	observe := func() {
		for i := 0; i < batch; i++ {
			l.Observe(sent%512, sent, testStart)
			sent++
		}
	}
	for warm := 0; warm < 2; warm++ { // both buffers of every lane reach their size
		observe()
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	healthy, acked := s.bufferedBytes(), s.Acked()

	fsys.fail.Store(true)
	for round := 0; round < 40; round++ {
		observe()
		if err := s.Sync(); !errors.Is(err, errWALDisk) {
			t.Fatalf("round %d: Sync on a failing WAL = %v, want the injected error", round, err)
		}
		if got := s.bufferedBytes(); got > healthy {
			t.Fatalf("round %d: %d bytes buffered, %d when healthy: a degraded store is hoarding records", round, got, healthy)
		}
	}
	if app, ack := s.Appended(), s.Acked(); app != uint64(sent) || ack != acked {
		t.Fatalf("degraded: appended/acked = %d/%d, want %d/%d", app, ack, sent, acked)
	}
	if got := metricValue(t, reg, "wormgate_wal_pending_records"); got != float64(uint64(sent)-acked) {
		t.Fatalf("wormgate_wal_pending_records = %v, want appended - acked = %d", got, uint64(sent)-acked)
	}
	if got := metricValue(t, reg, "wormgate_wal_degraded_total"); got != 39 {
		t.Fatalf("wormgate_wal_degraded_total = %v, want the 39 group commits after the failing one", got)
	}

	fsys.fail.Store(false)
	if err := s.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if app, ack := s.Appended(), s.Acked(); ack != app {
		t.Fatalf("healed: appended/acked = %d/%d, want them equal", app, ack)
	}
	if got := metricValue(t, reg, "wormgate_wal_pending_records"); got != 0 {
		t.Fatalf("wormgate_wal_pending_records = %v after the healing snapshot, want 0", got)
	}
	observe()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after the healing snapshot: %v", err)
	}
	if app, ack := s.Appended(), s.Acked(); app != uint64(sent) || ack != app {
		t.Fatalf("after healing: appended/acked = %d/%d, want %d/%d", app, ack, sent, sent)
	}
	want := mustState(t, l)

	m.Crash()
	m.Reopen()
	s2, err := Open(Options{FS: m}, cfg, testStart)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from the live one")
	}
	if info := s2.Recovery(); info.ReplayedRecords != batch {
		t.Fatalf("recovery replayed %d records, want the %d after the healing snapshot", info.ReplayedRecords, batch)
	}
}
