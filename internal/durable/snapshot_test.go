package durable

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/crashsafe"
	"wormcontain/internal/faultfs"
)

// TestSnapshotCutUnderTraffic pins the cut contract now that
// CheckpointState sorts and encodes outside the limiter mutex:
// snapshots taken while observers hammer the limiter, then a crash,
// must recover to exactly the live state — every record strictly
// before or after each cut, none lost and none applied twice. Run
// under -race (make crash) it also proves the copy-out shares nothing
// with the live hosts.
func TestSnapshotCutUnderTraffic(t *testing.T) {
	cfg := core.LimiterConfig{M: 40, Cycle: time.Hour, CheckFraction: 0.5}
	backends := map[string]func(time.Time) (core.Backend, error){
		"exact": nil,
		"sketch": func(start time.Time) (core.Backend, error) {
			return core.NewSketchLimiter(core.SketchConfig{LimiterConfig: cfg, FailureM: 10}, start)
		},
	}
	for name, newLimiter := range backends {
		t.Run(name, func(t *testing.T) {
			m := faultfs.NewMem(nil)
			s, err := Open(Options{FS: m, NewLimiter: newLimiter}, cfg, testStart)
			if err != nil {
				t.Fatal(err)
			}
			l := s.Limiter()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := uint32(0); w < 4; w++ {
				wg.Add(1)
				go func(w uint32) {
					defer wg.Done()
					for i := uint32(0); ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						src := w<<16 | i%300 // hosts fill, flag and run out of budget
						l.Observe(src, i/300, testStart)
						if fo, ok := l.(core.FailureObserver); ok && i%5 == 0 {
							fo.ObserveFailure(src, i, testStart)
						}
						if i%97 == 0 {
							l.Reinstate(src)
							l.ApplyAlert(core.Alert{Origin: uint64(w), Seq: uint64(i), Src: src + 1, UnixMs: testStart.UnixMilli()})
						}
					}
				}(w)
			}
			const snapshots = 25
			for k := 0; k < snapshots; k++ {
				for target := s.Appended() + 500; s.Appended() < target; {
					runtime.Gosched() // until the observers have moved on
				}
				if err := s.WriteSnapshot(); err != nil {
					t.Fatalf("WriteSnapshot %d: %v", k, err)
				}
			}
			close(stop)
			wg.Wait()
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			want := mustState(t, l)

			m.Crash()
			m.Reopen()
			s2, err := Open(Options{FS: m, NewLimiter: newLimiter}, cfg, testStart)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustState(t, s2.Limiter()); !bytes.Equal(got, want) {
				t.Fatalf("snapshot + post-cut WAL differs from the live state: live %+v, recovered %+v",
					l.Snapshot(), s2.Limiter().Snapshot())
			}
			if info := s2.Recovery(); info.SnapshotSeq != snapshots+1 || info.TruncatedBytes != 0 {
				t.Fatalf("recovery info = %+v, want snapshot generation %d and nothing truncated", info, snapshots+1)
			}
		})
	}
}

// TestLegacySnapshotIsFatal: a CRC-valid snapshot in the retired JSON
// format is intact state this build cannot read. Open and Inspect must
// stop with an error naming the format — not skip it as corrupt, start
// fresh and refund every budget — and must leave the directory alone.
func TestLegacySnapshotIsFatal(t *testing.T) {
	m := faultfs.NewMem(nil)
	s := openMem(t, m, Options{})
	s.Limiter().Observe(1, 1, testStart)
	if err := s.Close(); err != nil { // generations 1 and 2, both binary
		t.Fatal(err)
	}
	legacy := crashsafe.AppendFrame(nil, []byte(`{"version":1,"m":4,"cycleMillis":60000,"checkFraction":0.5,"hosts":[]}`))
	f, err := m.Create(snapSeries.Name(3))
	if err != nil {
		t.Fatal(err)
	}
	f.Write(legacy)
	f.Sync()
	f.Close()
	before, _ := m.List()

	_, err = Open(Options{FS: m}, testCfg, testStart)
	if !errors.Is(err, core.ErrLegacySnapshot) || !strings.Contains(err.Error(), snapSeries.Name(3)) {
		t.Fatalf("Open err = %v, want ErrLegacySnapshot naming %s", err, snapSeries.Name(3))
	}
	if _, err := Inspect(m); !errors.Is(err, core.ErrLegacySnapshot) {
		t.Fatalf("Inspect err = %v, want ErrLegacySnapshot", err)
	}
	if after, _ := m.List(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused directory was modified: %v -> %v", before, after)
	}

	// The same bytes with a broken checksum are a torn write, not a
	// legacy file: skipped like any other corrupt snapshot.
	legacy[len(legacy)-1] ^= 1
	f, _ = m.Create(snapSeries.Name(3))
	f.Write(legacy)
	f.Sync()
	f.Close()
	s2 := openMem(t, m, Options{})
	if info := s2.Recovery(); info.CorruptSnapshots != 1 || info.SnapshotSeq != 2 {
		t.Fatalf("recovery info = %+v, want the corrupt generation 3 skipped for 2", info)
	}
}

// readCountFS counts ReadFile calls per file.
type readCountFS struct {
	faultfs.FS
	reads map[string]int
}

func (c *readCountFS) ReadFile(name string) ([]byte, error) {
	c.reads[name]++
	return c.FS.ReadFile(name)
}

// TestInspectReportsHeadersAndReadsOnce: fsck prints each snapshot's
// format, backend and host count, and restores every snapshot exactly
// once — the newest valid one is the recovery base, not decoded again.
func TestInspectReportsHeadersAndReadsOnce(t *testing.T) {
	m := faultfs.NewMem(nil)
	s := openMem(t, m, Options{})
	for src := uint32(1); src <= 3; src++ {
		s.Limiter().Observe(src, 9, testStart)
	}
	if err := s.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	s.Limiter().Observe(4, 9, testStart)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	counted := &readCountFS{FS: m, reads: map[string]int{}}
	rep, err := Inspect(counted)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range counted.reads {
		if strings.HasPrefix(name, "snap-") && n != 1 {
			t.Errorf("Inspect read %s %d times, want once", name, n)
		}
	}
	if len(rep.Snapshots) != 2 || rep.Snapshots[1].Header.Hosts != 3 ||
		rep.Snapshots[1].Header.Backend.String() != "exact" || rep.Snapshots[1].Header.Format != 1 {
		t.Fatalf("snapshot checks = %+v, want generation 2 as a format-1 exact snapshot of 3 hosts", rep.Snapshots)
	}
	if rep.SnapshotSeq != 2 || rep.ReplayedRecords != 1 || rep.Stats.ActiveHosts != 4 {
		t.Fatalf("report = %+v, want generation 2 + 1 record = 4 hosts", rep)
	}
	var buf bytes.Buffer
	rep.Write(&buf)
	for _, want := range []string{"format 1  exact  0 host(s)  OK", "format 1  exact  3 host(s)  OK"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("fsck output missing %q:\n%s", want, buf.String())
		}
	}
}
