package durable

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/faultfs"
	"wormcontain/internal/telemetry"
)

var testCfg = core.LimiterConfig{M: 4, Cycle: time.Minute, CheckFraction: 0.5}

var testStart = time.UnixMilli(1_700_000_000_000).UTC()

func openMem(t *testing.T, m *faultfs.Mem, opts Options) *Store {
	t.Helper()
	opts.FS = m
	s, err := Open(opts, testCfg, testStart)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustState(t *testing.T, l core.Backend) []byte {
	t.Helper()
	b, err := l.CheckpointState(nil)
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	return b
}

func TestStoreSyncThenReopen(t *testing.T) {
	m := faultfs.NewMem(nil)
	s := openMem(t, m, Options{})
	l := s.Limiter()
	for i := uint32(0); i < 6; i++ { // last two attempts denied (M=4)
		l.Observe(1, 100+i, testStart.Add(time.Duration(i)*time.Millisecond))
	}
	l.Reinstate(1)
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if app, ack := s.Appended(), s.Acked(); app != 7 || ack != 7 {
		t.Fatalf("appended/acked = %d/%d, want 7/7", app, ack)
	}
	want := mustState(t, l)

	// Crash without a clean close: only the synced WAL carries state.
	m.Crash()
	m.Reopen()
	s2 := openMem(t, m, Options{})
	if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\nwant %s\ngot  %s", want, got)
	}
	if info := s2.Recovery(); info.Fresh || info.ReplayedRecords != 7 {
		t.Fatalf("recovery info = %+v, want 7 replayed records", info)
	}
}

func TestStoreCloseTakesFinalSnapshot(t *testing.T) {
	m := faultfs.NewMem(nil)
	s := openMem(t, m, Options{})
	l := s.Limiter()
	l.Observe(9, 1, testStart)
	l.Observe(9, 2, testStart)
	// No Sync: Close's final snapshot must make these durable anyway.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if ack := s.Acked(); ack != 2 {
		t.Fatalf("acked after Close = %d, want 2", ack)
	}
	want := mustState(t, l)
	m.Crash()
	m.Reopen()
	s2 := openMem(t, m, Options{})
	if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs after graceful close:\nwant %s\ngot  %s", want, got)
	}
	if info := s2.Recovery(); info.ReplayedRecords != 0 || info.TruncatedBytes != 0 {
		t.Fatalf("graceful close should leave nothing to replay, got %+v", info)
	}
}

func TestStoreSnapshotRotationAndGC(t *testing.T) {
	m := faultfs.NewMem(nil)
	s := openMem(t, m, Options{})
	l := s.Limiter()
	for i := 0; i < 5; i++ {
		l.Observe(uint32(i), 1, testStart.Add(time.Duration(i)*time.Second))
		if err := s.WriteSnapshot(); err != nil {
			t.Fatalf("WriteSnapshot %d: %v", i, err)
		}
	}
	names, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	// Open wrote generation 1; five snapshots later we're at 6 and GC
	// keeps only generations 5 and 6.
	want := []string{walSeries.Name(5), walSeries.Name(6), snapSeries.Name(5), snapSeries.Name(6)}
	if fmt.Sprint(names) != fmt.Sprint([]string{snapSeries.Name(5), snapSeries.Name(6), walSeries.Name(5), walSeries.Name(6)}) {
		// List is sorted lexically: snap-* before wal-*.
		t.Fatalf("files after GC = %v, want %v", names, want)
	}
}

func TestStoreRecoversFromTornTail(t *testing.T) {
	m := faultfs.NewMem(nil)
	s := openMem(t, m, Options{})
	l := s.Limiter()
	l.Observe(1, 1, testStart)
	l.Observe(1, 2, testStart)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := mustState(t, l)

	// Corrupt the live segment's tail out-of-band: a durable torn frame,
	// as left by a crash mid-group-commit.
	f, err := m.Append(walSeries.Name(1))
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}
	f.Write(garbage)
	f.Sync()
	f.Close()

	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	reg := telemetry.NewRegistry()
	s2 := openMem(t, m, Options{Logf: logf, Metrics: reg})
	if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
		t.Fatalf("truncated recovery state differs:\nwant %s\ngot  %s", want, got)
	}
	info := s2.Recovery()
	if info.TruncatedBytes != len(garbage) || info.ReplayedRecords != 2 {
		t.Fatalf("recovery info = %+v, want %d truncated bytes and 2 records", info, len(garbage))
	}
	if len(logs) == 0 || !strings.Contains(strings.Join(logs, "\n"), "truncated") {
		t.Fatalf("truncation was not logged: %q", logs)
	}
	if got := metricValue(t, reg, "wormgate_recovery_truncated_bytes"); got != float64(len(garbage)) {
		t.Fatalf("wormgate_recovery_truncated_bytes = %v, want %d", got, len(garbage))
	}
	if got := metricValue(t, reg, "wormgate_recovery_replayed_records"); got != 2 {
		t.Fatalf("wormgate_recovery_replayed_records = %v, want 2", got)
	}
}

func metricValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, fam := range reg.Snapshot().Families {
		if fam.Name == name {
			if len(fam.Series) != 1 {
				t.Fatalf("%s has %d series, want 1", name, len(fam.Series))
			}
			return fam.Series[0].Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

func TestStoreCorruptSnapshotFallsBack(t *testing.T) {
	m := faultfs.NewMem(nil)
	s := openMem(t, m, Options{})
	l := s.Limiter()
	l.Observe(1, 1, testStart)
	if err := s.WriteSnapshot(); err != nil { // generation 2
		t.Fatal(err)
	}
	l.Observe(1, 2, testStart)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := mustState(t, l)

	// Flip a byte inside the newest snapshot: recovery must fall back to
	// generation 1 and replay both WAL segments.
	raw, err := m.ReadFile(snapSeries.Name(2))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	f, _ := m.Create(snapSeries.Name(2))
	f.Write(raw)
	f.Sync()
	f.Close()

	s2 := openMem(t, m, Options{})
	if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
		t.Fatalf("fallback recovery state differs:\nwant %s\ngot  %s", want, got)
	}
	info := s2.Recovery()
	if info.CorruptSnapshots != 1 || info.SnapshotSeq != 1 || info.ReplayedRecords != 2 {
		t.Fatalf("recovery info = %+v, want corrupt=1 seq=1 replayed=2", info)
	}
}

func TestStoreBackgroundFlusher(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, FsyncInterval: time.Millisecond}, testCfg, testStart)
	if err != nil {
		t.Fatal(err)
	}
	s.Limiter().Observe(1, 1, testStart)
	deadline := time.Now().Add(5 * time.Second)
	for s.Acked() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never acked the record")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreConcurrentObserversRecoverExactly(t *testing.T) {
	// Hammer the journal from many goroutines with a background flusher
	// running (real OS filesystem), close gracefully, and verify the
	// recovered state is byte-identical — the WAL order is the limiter
	// lock order, whatever the interleaving was.
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, FsyncInterval: time.Millisecond, SnapshotInterval: 5 * time.Millisecond},
		core.LimiterConfig{M: 1000, Cycle: time.Hour}, testStart)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				src := uint32(w % 4) // contended sources
				s.Limiter().Observe(src, uint32(i), testStart.Add(time.Duration(i)*time.Millisecond))
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if app, ack := s.Appended(), s.Acked(); app != workers*each || ack != app {
		t.Fatalf("appended/acked = %d/%d, want %d/%d", app, ack, workers*each, workers*each)
	}
	want := mustState(t, s.Limiter())

	s2, err := Open(Options{Dir: dir}, core.LimiterConfig{M: 1000, Cycle: time.Hour}, testStart)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from live state after concurrent load")
	}
	if got := s2.Limiter().Snapshot().TotalObserved; got != workers*each {
		t.Fatalf("recovered TotalObserved = %d, want %d", got, workers*each)
	}
}

func TestOpenRejectsSubMillisecondCycle(t *testing.T) {
	_, err := Open(Options{FS: faultfs.NewMem(nil)},
		core.LimiterConfig{M: 2, Cycle: time.Minute + 300*time.Nanosecond}, testStart)
	if err == nil || !strings.Contains(err.Error(), "millisecond") {
		t.Fatalf("Open err = %v, want millisecond-alignment error", err)
	}
}

func TestOpenKeepsRecoveredConfig(t *testing.T) {
	m := faultfs.NewMem(nil)
	s := openMem(t, m, Options{})
	s.Limiter().Observe(1, 1, testStart)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var logs []string
	other := core.LimiterConfig{M: 99, Cycle: time.Hour}
	s2, err := Open(Options{FS: m, Logf: func(f string, a ...any) {
		logs = append(logs, fmt.Sprintf(f, a...))
	}}, other, testStart)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Limiter().Config(); got != testCfg {
		t.Fatalf("recovered config = %+v, want snapshot's %+v", got, testCfg)
	}
	if !strings.Contains(strings.Join(logs, "\n"), "overrides") {
		t.Fatalf("config override was not logged: %q", logs)
	}
}

func TestInspectMatchesRecovery(t *testing.T) {
	m := faultfs.NewMem(nil)
	s := openMem(t, m, Options{})
	l := s.Limiter()
	for i := uint32(0); i < 6; i++ {
		l.Observe(2, i, testStart)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Torn tail, durable.
	f, _ := m.Append(walSeries.Name(1))
	f.Write([]byte{1, 2, 3})
	f.Sync()
	f.Close()

	rep, err := Inspect(m)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	s2 := openMem(t, m, Options{})
	info := s2.Recovery()
	if rep.RecoveryInfo != info {
		t.Fatalf("fsck accounting %+v != recovery accounting %+v", rep.RecoveryInfo, info)
	}
	if got := mustState(t, s2.Limiter()); rep.Stats.TotalObserved != s2.Limiter().Snapshot().TotalObserved {
		t.Fatalf("fsck stats %+v do not match recovered state %s", rep.Stats, got)
	}
	var buf bytes.Buffer
	rep.Write(&buf)
	out := buf.String()
	for _, want := range []string{"TORN", "3 bytes unreachable", "6 record(s) replayed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fsck output missing %q:\n%s", want, out)
		}
	}
}

func TestInspectEmptyDir(t *testing.T) {
	rep, err := Inspect(faultfs.NewMem(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fresh {
		t.Fatalf("empty dir report = %+v, want Fresh", rep)
	}
	var buf bytes.Buffer
	rep.Write(&buf)
	if !strings.Contains(buf.String(), "fresh start") {
		t.Fatalf("fsck output = %q, want fresh start notice", buf.String())
	}
}
