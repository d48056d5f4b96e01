package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

func TestLimiterSnapshotRoundTrip(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 3, Cycle: 30 * 24 * time.Hour, CheckFraction: 0.5})
	// Build interesting state: host 1 partially used, host 2 removed,
	// host 3 flagged.
	l.Observe(1, 100, t0)
	l.Observe(1, 101, t0)
	l.Observe(2, 1, t0)
	l.Observe(2, 2, t0)
	l.Observe(2, 3, t0)
	l.Observe(2, 4, t0) // removal
	l.Observe(3, 9, t0)
	l.Observe(3, 10, t0) // crosses f·M = 1.5 at the first, flagged already

	data, err := l.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreLimiter(data)
	if err != nil {
		t.Fatal(err)
	}

	if restored.Config() != l.Config() {
		t.Errorf("config changed: %+v vs %+v", restored.Config(), l.Config())
	}
	if got := restored.DistinctCount(1); got != 2 {
		t.Errorf("host 1 count = %d, want 2", got)
	}
	if !restored.Removed(2) {
		t.Error("host 2 removal lost")
	}
	if restored.Removed(1) || restored.Removed(3) {
		t.Error("spurious removals after restore")
	}
	s1, s2 := l.Snapshot(), restored.Snapshot()
	if s1 != s2 {
		t.Errorf("stats changed: %+v vs %+v", s1, s2)
	}

	// Behaviour continues seamlessly: host 1 has one distinct left.
	if d := restored.Observe(1, 102, t0.Add(time.Minute)); d == Deny {
		t.Error("host 1 should have budget left")
	}
	if d := restored.Observe(1, 103, t0.Add(time.Minute)); d != Deny {
		t.Errorf("host 1 over budget after restore: %v", d)
	}
}

func TestLimiterSnapshotDeterministic(t *testing.T) {
	build := func() *Limiter {
		l := newTestLimiter(t, LimiterConfig{M: 10, Cycle: time.Hour})
		// Insert in different orders across builds via map iteration in
		// the limiter is irrelevant — marshal must sort.
		for src := uint32(5); src > 0; src-- {
			for dst := uint32(50); dst > 45; dst-- {
				l.Observe(src, dst, t0)
			}
		}
		return l
	}
	a, err := build().MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("snapshots of identical states differ")
	}
}

func TestLimiterSnapshotPreservesCyclePosition(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 5, Cycle: time.Hour})
	// Advance two cycles.
	l.Observe(1, 1, t0.Add(2*time.Hour+time.Minute))
	if got := l.CycleIndex(); got != 2 {
		t.Fatalf("cycle index = %d", got)
	}
	data, err := l.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreLimiter(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.CycleIndex(); got != 2 {
		t.Errorf("restored cycle index = %d, want 2", got)
	}
	// The next cycle boundary is preserved: an observation 30 minutes
	// later stays in cycle 2; one 65 minutes later rolls to cycle 3.
	restored.Observe(1, 2, t0.Add(2*time.Hour+31*time.Minute))
	if got := restored.CycleIndex(); got != 2 {
		t.Errorf("cycle index after in-cycle observation = %d, want 2", got)
	}
	restored.Observe(1, 3, t0.Add(3*time.Hour+5*time.Minute))
	if got := restored.CycleIndex(); got != 3 {
		t.Errorf("cycle index after boundary = %d, want 3", got)
	}
}

// snapSpec spells a snapshot payload out field by field, independently
// of the encoder under test: encode() of a limiter's spec must equal its
// MarshalState (TestSnapshotLayout), and the corruption table edits a
// spec to produce payloads no encoder would.
type snapSpec struct {
	magic           string
	format, backend uint8
	hostCount       uint32 // claimed; the table makes it disagree with hosts
	alertCount      uint32
	m, cycle        uint64
	checkFraction   float64
	epochMs         uint64
	cycleIndex      uint64
	counters        [5]uint64 // observed, removals, flags, denied, alert removals
	sketch          *sketchSpec
	hosts           []hostSpec
	alerts          []Alert
	trailing        []byte
}

type sketchSpec struct {
	bits, failureBits         uint32
	failureM                  uint64
	failures, failureRemovals uint64
}

type hostSpec struct {
	src              uint32
	removed, flagged uint8
	dsts             []uint32 // exact backend
	regs             []uint64 // sketch backend
}

func (s snapSpec) encode() []byte {
	b := []byte(s.magic)
	b = append(b, s.format, s.backend)
	b = binary.LittleEndian.AppendUint32(b, s.hostCount)
	b = binary.LittleEndian.AppendUint32(b, s.alertCount)
	for _, v := range []uint64{s.m, s.cycle, math.Float64bits(s.checkFraction), s.epochMs, s.cycleIndex} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, v := range s.counters {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	if k := s.sketch; k != nil {
		b = binary.LittleEndian.AppendUint32(b, k.bits)
		b = binary.LittleEndian.AppendUint32(b, k.failureBits)
		for _, v := range []uint64{k.failureM, k.failures, k.failureRemovals} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	for _, h := range s.hosts {
		b = binary.LittleEndian.AppendUint32(b, h.src)
		b = append(b, h.removed, h.flagged)
		if s.sketch == nil {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(h.dsts)))
		}
		for _, d := range h.dsts {
			b = binary.LittleEndian.AppendUint32(b, d)
		}
		for _, w := range h.regs {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	for _, a := range s.alerts {
		b = binary.LittleEndian.AppendUint64(b, a.Origin)
		b = binary.LittleEndian.AppendUint64(b, a.Seq)
		b = binary.LittleEndian.AppendUint32(b, a.Src)
		b = binary.LittleEndian.AppendUint64(b, uint64(a.UnixMs))
	}
	return append(b, s.trailing...)
}

// exactSpec is a valid exact-backend snapshot: M=3, host 1 with two
// destinations, host 2 removed at its budget, host 9 removed by the one
// alert in the ledger.
func exactSpec() snapSpec {
	return snapSpec{
		magic: "WCLS", format: 1, backend: 1, hostCount: 3, alertCount: 1,
		m: 3, cycle: uint64(time.Hour), checkFraction: 0.5,
		epochMs: uint64(t0.UnixMilli()), cycleIndex: 2,
		counters: [5]uint64{6, 1, 2, 1, 1},
		hosts: []hostSpec{
			{src: 1, flagged: 1, dsts: []uint32{100, 101}},
			{src: 2, removed: 1, flagged: 1, dsts: []uint32{1, 2, 3}},
			{src: 9, removed: 1},
		},
		alerts: []Alert{{Origin: 5, Seq: 1, Src: 9, UnixMs: t0.UnixMilli()}},
	}
}

// sketchSpecValid is a valid sketch-backend snapshot: M=100 in 128
// contact bits, FailureM=50 in 64 failure bits, two hosts.
func sketchSpecValid() snapSpec {
	return snapSpec{
		magic: "WCLS", format: 1, backend: 2, hostCount: 2, alertCount: 1,
		m: 100, cycle: uint64(time.Hour), checkFraction: 0.8,
		epochMs:  uint64(sketchStart.UnixMilli()),
		counters: [5]uint64{9, 0, 0, 0, 1},
		sketch:   &sketchSpec{bits: 128, failureBits: 64, failureM: 50, failures: 3},
		hosts: []hostSpec{
			{src: 4, regs: []uint64{0b1011, 1 << 63, 0b11}},
			{src: 8, removed: 1, regs: []uint64{0, 0, 0}},
		},
		alerts: []Alert{{Origin: 5, Seq: 1, Src: 8, UnixMs: sketchStart.UnixMilli()}},
	}
}

// TestSnapshotLayout pins the byte layout: a limiter driven into a
// known state marshals to exactly the hand-spelled payload, and that
// payload restores and re-marshals to itself, for both backends.
func TestSnapshotLayout(t *testing.T) {
	ex, err := NewLimiter(LimiterConfig{M: 3, Cycle: time.Hour, CheckFraction: 0.5}, t0.Add(-2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ex.Observe(1, 101, t0) // rolls two cycles
	ex.Observe(1, 100, t0)
	for dst := uint32(3); dst >= 1; dst-- {
		ex.Observe(2, dst, t0)
	}
	ex.Observe(2, 4, t0) // over budget: removed
	ex.ApplyAlert(Alert{Origin: 5, Seq: 1, Src: 9, UnixMs: t0.UnixMilli()})
	if got, want := mustMarshal(t, ex), exactSpec().encode(); !bytes.Equal(got, want) {
		t.Errorf("exact layout:\ngot  %x\nwant %x", got, want)
	}

	for name, spec := range map[string]snapSpec{"exact": exactSpec(), "sketch": sketchSpecValid()} {
		want := spec.encode()
		l, err := RestoreAnyLimiter(want)
		if err != nil {
			t.Fatalf("%s: hand-spelled payload rejected: %v", name, err)
		}
		if got := mustMarshal(t, l); !bytes.Equal(got, want) {
			t.Errorf("%s: restore → marshal changed the payload:\ngot  %x\nwant %x", name, got, want)
		}
		hdr, err := ReadSnapshotHeader(want)
		if err != nil || hdr.Format != 1 || uint8(hdr.Backend) != spec.backend ||
			hdr.Hosts != len(spec.hosts) || hdr.Alerts != 1 || hdr.Backend.String() != name {
			t.Errorf("%s: header = %+v, %v", name, hdr, err)
		}
	}
	if sk, err := restoreSketchLimiter(sketchSpecValid().encode()); err != nil {
		t.Fatal(err)
	} else if sk.distinctCount(4) == 0 || sk.failureCount(4) == 0 || !sk.Removed(8) || sk.Snapshot().TotalFailures != 3 {
		t.Errorf("sketch restore lost state: %+v", sk.Snapshot())
	}
}

// TestRestoreLimiterRejectsBadSnapshots is the corruption table: every
// malformed, non-canonical or semantically invalid payload is an error
// from all three restore entry points — never a panic, never a limiter.
func TestRestoreLimiterRejectsBadSnapshots(t *testing.T) {
	type edit func(*snapSpec)
	cases := []struct {
		name   string
		base   func() snapSpec
		mutate edit
	}{
		{"wrong magic", exactSpec, func(s *snapSpec) { s.magic = "WCLX" }},
		{"wrong format", exactSpec, func(s *snapSpec) { s.format = 2 }},
		{"unknown backend", exactSpec, func(s *snapSpec) { s.backend = 3 }},
		{"backend byte of the other codec", exactSpec, func(s *snapSpec) { s.backend = 2 }},
		{"bad config", exactSpec, func(s *snapSpec) { s.m = 0 }},
		{"zero cycle", exactSpec, func(s *snapSpec) { s.cycle = 0 }},
		{"M past int", exactSpec, func(s *snapSpec) { s.m = 1 << 63 }},
		{"counter past int", exactSpec, func(s *snapSpec) { s.counters[3] = 1 << 63 }},
		{"overfull host", exactSpec, func(s *snapSpec) { s.hosts[0].dsts = []uint32{1, 2, 3, 4} }}, // 4 > M=3
		{"duplicate host", exactSpec, func(s *snapSpec) { s.hosts[1].src = 1 }},
		{"unsorted hosts", exactSpec, func(s *snapSpec) { s.hosts[0].src, s.hosts[1].src = 2, 1 }},
		{"duplicate destination", exactSpec, func(s *snapSpec) { s.hosts[0].dsts = []uint32{100, 100} }},
		{"unsorted destinations", exactSpec, func(s *snapSpec) { s.hosts[0].dsts = []uint32{101, 100} }},
		{"mark not a boolean", exactSpec, func(s *snapSpec) { s.hosts[0].flagged = 2 }},
		{"host count over", exactSpec, func(s *snapSpec) { s.hostCount = 4 }},
		{"host count under", exactSpec, func(s *snapSpec) { s.hostCount = 2 }},
		{"host count absurd", exactSpec, func(s *snapSpec) { s.hostCount = 1<<32 - 1 }},
		{"destination count absurd", exactSpec, func(s *snapSpec) {
			*s = snapSpec{magic: s.magic, format: 1, backend: 1, hostCount: 1, m: 1 << 40, cycle: s.cycle,
				trailing: []byte{1, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}}
		}},
		{"alert count over", exactSpec, func(s *snapSpec) { s.alertCount = 2 }},
		{"alert count under", exactSpec, func(s *snapSpec) { s.alertCount = 0 }},
		{"alert count absurd", exactSpec, func(s *snapSpec) { s.alertCount = 1<<32 - 1 }},
		{"duplicate alert", exactSpec, func(s *snapSpec) { s.alerts, s.alertCount = append(s.alerts, s.alerts[0]), 2 }},
		{"unsorted alerts", exactSpec, func(s *snapSpec) {
			s.alerts, s.alertCount = append(s.alerts, Alert{Origin: 4, Seq: 9, Src: 9}), 2
		}},
		{"trailing byte", exactSpec, func(s *snapSpec) { s.trailing = []byte{0} }},

		{"sketch: backend byte of the other codec", sketchSpecValid, func(s *snapSpec) { s.backend = 1 }},
		{"sketch: bad config", sketchSpecValid, func(s *snapSpec) { s.m = 0 }},
		{"sketch: width not a power of two", sketchSpecValid, func(s *snapSpec) { s.sketch.bits = 96 }},
		{"sketch: width too small for M", sketchSpecValid, func(s *snapSpec) { s.m = 5000 }},
		{"sketch: unresolved auto width", sketchSpecValid, func(s *snapSpec) { s.sketch.bits = 0 }},
		{"sketch: failure width without failure M", sketchSpecValid, func(s *snapSpec) { s.sketch.failureM = 0 }},
		{"sketch: failure M past int", sketchSpecValid, func(s *snapSpec) { s.sketch.failureM = 1 << 63 }},
		{"sketch: register length mismatch", sketchSpecValid, func(s *snapSpec) { s.sketch.bits = 64 }},
		{"sketch: short registers", sketchSpecValid, func(s *snapSpec) { s.hosts[1].regs = s.hosts[1].regs[:2] }},
		{"sketch: contact bits past threshold", sketchSpecValid, func(s *snapSpec) {
			s.hosts[0].regs[0], s.hosts[0].regs[1] = 1<<64-1, 1<<64-1
		}},
		{"sketch: failure bits past threshold", sketchSpecValid, func(s *snapSpec) { s.hosts[0].regs[2] = 1<<64 - 1 }},
		{"sketch: duplicate host", sketchSpecValid, func(s *snapSpec) { s.hosts[1].src = 4 }},
		{"sketch: unsorted hosts", sketchSpecValid, func(s *snapSpec) { s.hosts[0].src = 9 }},
		{"sketch: mark not a boolean", sketchSpecValid, func(s *snapSpec) { s.hosts[1].removed = 0x80 }},
		{"sketch: host count absurd", sketchSpecValid, func(s *snapSpec) { s.hostCount = 1<<32 - 1 }},
		{"sketch: unsorted alerts", sketchSpecValid, func(s *snapSpec) {
			s.alerts, s.alertCount = append(s.alerts, Alert{Origin: 5, Seq: 1}), 2
		}},
		{"sketch: trailing byte", sketchSpecValid, func(s *snapSpec) { s.trailing = []byte{0} }},
	}
	for _, tc := range cases {
		spec := tc.base()
		tc.mutate(&spec)
		rejectEverywhere(t, tc.name, spec.encode())
	}

	rejectEverywhere(t, "empty", nil)
	legacy := []byte(`{"version":1,"m":5,"cycleMillis":3600000,"hosts":[]}`)
	rejectEverywhere(t, "legacy JSON", legacy)
	if _, err := RestoreAnyLimiter(legacy); !errors.Is(err, ErrLegacySnapshot) {
		t.Errorf("legacy JSON: err = %v, want ErrLegacySnapshot", err)
	}
	if _, err := ReadSnapshotHeader(legacy); !errors.Is(err, ErrLegacySnapshot) {
		t.Errorf("legacy JSON header: err = %v, want ErrLegacySnapshot", err)
	}
}

// rejectEverywhere requires every restore entry point to refuse data,
// having allocated no more than a small multiple of what it was given
// (an absurd count field must be checked against the payload before
// anything is sized by it).
func rejectEverywhere(t *testing.T, name string, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if l, err := RestoreLimiter(data); err == nil {
		t.Errorf("%s: RestoreLimiter accepted (%+v)", name, l.Snapshot())
	}
	if l, err := restoreSketchLimiter(data); err == nil {
		t.Errorf("%s: RestoreSketchLimiter accepted (%+v)", name, l.Snapshot())
	}
	if l, err := RestoreAnyLimiter(data); err == nil {
		t.Errorf("%s: RestoreAnyLimiter accepted (%+v)", name, l.Snapshot())
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("%s: rejecting %d bytes allocated %d", name, len(data), grew)
	}
}

// TestRestoreRejectsEveryTruncation cuts a rich snapshot of each backend
// at every byte offset: each prefix is an error, none panics.
func TestRestoreRejectsEveryTruncation(t *testing.T) {
	for name, l := range map[string]Backend{
		"exact":  randomExactHistory(t, 1905),
		"sketch": randomSketchHistory(t, 1905),
	} {
		data := mustMarshal(t, l)
		for cut := 0; cut < len(data); cut++ {
			if _, err := RestoreAnyLimiter(data[:cut:cut]); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte snapshot accepted", name, cut, len(data))
			}
		}
		if _, err := RestoreAnyLimiter(data); err != nil {
			t.Fatalf("%s: full snapshot rejected: %v", name, err)
		}
	}
}

func TestLimiterSnapshotEmpty(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 5, Cycle: time.Hour})
	data, err := l.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreLimiter(data)
	if err != nil {
		t.Fatal(err)
	}
	if s := restored.Snapshot(); s.ActiveHosts != 0 {
		t.Errorf("restored empty limiter has %d hosts", s.ActiveHosts)
	}
}
