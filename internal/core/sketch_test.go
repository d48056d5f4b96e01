package core

import (
	"bytes"
	"math"
	"testing"
	"time"

	"wormcontain/internal/rng"
)

var sketchStart = time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)

func newTestSketch(t *testing.T, cfg SketchConfig) *SketchLimiter {
	t.Helper()
	l, err := NewSketchLimiter(cfg, sketchStart)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSketchConfigValidation(t *testing.T) {
	base := LimiterConfig{M: 100, Cycle: time.Hour, CheckFraction: 0.9}
	cases := []struct {
		name string
		cfg  SketchConfig
		ok   bool
	}{
		{"auto-sized", SketchConfig{LimiterConfig: base}, true},
		{"explicit ok", SketchConfig{LimiterConfig: base, Bits: 128}, true},
		{"not power of two", SketchConfig{LimiterConfig: base, Bits: 96}, false},
		{"too narrow for M", SketchConfig{LimiterConfig: LimiterConfig{M: 200, Cycle: time.Hour}, Bits: 64}, false},
		{"below minimum", SketchConfig{LimiterConfig: LimiterConfig{M: 10, Cycle: time.Hour}, Bits: 32}, false},
		{"bad limiter config", SketchConfig{LimiterConfig: LimiterConfig{M: 0, Cycle: time.Hour}}, false},
		{"failure variant ok", SketchConfig{LimiterConfig: base, Bits: 128, FailureM: 50}, true},
		{"failure bits too narrow", SketchConfig{LimiterConfig: base, Bits: 128, FailureM: 500, FailureBits: 64}, false},
		{"negative failureM", SketchConfig{LimiterConfig: base, Bits: 128, FailureM: -1}, false},
		// Both thresholds need more set bits than a host's uint16 count
		// holds: accepted before, the count wrapped and the host was
		// never removed.
		{"threshold past a host's count", SketchConfig{LimiterConfig: LimiterConfig{M: 100_000, Cycle: time.Hour}, Bits: 1 << 20}, false},
		{"failure threshold past a host's count", SketchConfig{LimiterConfig: base, Bits: 128, FailureM: 100_000, FailureBits: 1 << 20}, false},
	}
	for _, tc := range cases {
		_, err := NewSketchLimiter(tc.cfg, sketchStart)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// M=100 with the default slack needs 64 bits (64·ln8 ≈ 133);
	// wait — validated against the capacity rule, SketchBits must
	// return a width that itself validates.
	for _, m := range []int{1, 10, 100, 355, 1000, 5000, 50000, 500_000} {
		w := sketchBits(m)
		cfg := SketchConfig{LimiterConfig: LimiterConfig{M: m, Cycle: time.Hour}, Bits: w}
		if _, err := NewSketchLimiter(cfg, sketchStart); err != nil {
			t.Errorf("SketchBits(%d) = %d does not validate: %v", m, w, err)
		}
	}
}

// TestSketchDecisionSemantics drives one scanning host over the limit
// and checks the full verdict ladder: Allow → AllowAndCheck at the
// fraction-f flag → Deny at removal → Deny while removed → Allow after
// Reinstate.
func TestSketchDecisionSemantics(t *testing.T) {
	l := newTestSketch(t, SketchConfig{
		LimiterConfig: LimiterConfig{M: 100, Cycle: time.Hour, CheckFraction: 0.5},
		Bits:          256,
	})
	const src = 42
	var flagged, denied bool
	var firstDenyAt int
	for i := 0; i < 1000; i++ {
		d := l.Observe(src, uint32(1000+i), sketchStart.Add(time.Duration(i)*time.Millisecond))
		switch d {
		case AllowAndCheck:
			if flagged {
				t.Fatal("flagged twice")
			}
			if denied {
				t.Fatal("flag after deny")
			}
			flagged = true
		case Deny:
			if !denied {
				firstDenyAt = i
			}
			denied = true
		case Allow:
			if denied {
				t.Fatalf("allow at %d after removal", i)
			}
		}
	}
	if !flagged || !denied {
		t.Fatalf("flagged=%v denied=%v, want both", flagged, denied)
	}
	if !l.Removed(src) {
		t.Fatal("host not removed")
	}
	// The estimator must remove a 1000-distinct host somewhere in the
	// vicinity of M=100 — the study quantifies how close; here we only
	// require the right order of magnitude.
	if firstDenyAt < 50 || firstDenyAt > 200 {
		t.Errorf("removal at distinct count %d, want within [50, 200] for M=100", firstDenyAt)
	}
	est := l.distinctCount(src)
	if est < 50 || est > 220 {
		t.Errorf("estimate at removal = %d, want within [50, 220]", est)
	}

	if !l.Reinstate(src) {
		t.Fatal("reinstate failed")
	}
	if l.Reinstate(src) {
		t.Fatal("double reinstate succeeded")
	}
	if d := l.Observe(src, 5, sketchStart.Add(time.Second)); d != Allow {
		t.Fatalf("post-reinstate observe = %v, want allow", d)
	}
	if got := l.distinctCount(src); got != 1 {
		t.Fatalf("post-reinstate estimate = %d, want 1", got)
	}
}

// TestSketchRepeatContactsFree pins the scheme's defining property on
// the sketch backend: repeats of one destination never consume budget.
func TestSketchRepeatContactsFree(t *testing.T) {
	l := newTestSketch(t, SketchConfig{
		LimiterConfig: LimiterConfig{M: 100, Cycle: time.Hour},
		Bits:          128,
	})
	for i := 0; i < 100000; i++ {
		if d := l.Observe(7, 99, sketchStart); d != Allow {
			t.Fatalf("repeat %d: %v", i, d)
		}
	}
	if got := l.distinctCount(7); got != 1 {
		t.Fatalf("estimate after repeats = %d, want 1", got)
	}
}

func TestSketchCycleRollResetsAndReinstates(t *testing.T) {
	l := newTestSketch(t, SketchConfig{
		LimiterConfig: LimiterConfig{M: 100, Cycle: time.Minute},
		Bits:          256,
	})
	for i := 0; i < 500; i++ {
		l.Observe(1, uint32(i), sketchStart)
	}
	if !l.Removed(1) {
		t.Fatal("host not removed before roll")
	}
	if d := l.Observe(1, 9999, sketchStart.Add(time.Minute)); d != Allow {
		t.Fatalf("post-roll observe = %v, want allow", d)
	}
	if l.CycleIndex() != 1 {
		t.Fatalf("cycle index = %d, want 1", l.CycleIndex())
	}
	if l.Removed(1) {
		t.Fatal("removal survived the cycle roll")
	}
}

func TestSketchFailureVariantRemovesScanner(t *testing.T) {
	l := newTestSketch(t, SketchConfig{
		LimiterConfig: LimiterConfig{M: 1000, Cycle: time.Hour},
		Bits:          1024,
		FailureM:      50,
		FailureBits:   128,
	})
	// A legitimate host with a handful of distinct failures stays.
	for i := 0; i < 5; i++ {
		if d := l.ObserveFailure(1, uint32(i), sketchStart); d != Allow {
			t.Fatalf("legit failure %d: %v", i, d)
		}
	}
	if l.Removed(1) {
		t.Fatal("legit host removed")
	}
	// A scanner failing against hundreds of distinct destinations is
	// removed long before its contact count reaches M=1000.
	var removedAt int
	for i := 0; i < 400; i++ {
		l.Observe(2, uint32(10000+i), sketchStart)
		if d := l.ObserveFailure(2, uint32(10000+i), sketchStart); d == Deny && removedAt == 0 {
			removedAt = i
		}
	}
	if !l.Removed(2) {
		t.Fatal("scanner not removed by failure counting")
	}
	if removedAt == 0 || removedAt > 120 {
		t.Errorf("failure removal at distinct failure %d, want within (0, 120] for FailureM=50", removedAt)
	}
	// Removal bites on the next contact attempt.
	if d := l.Observe(2, 1, sketchStart); d != Deny {
		t.Fatalf("post-failure-removal observe = %v, want deny", d)
	}
	// Deny means this failure removed the host: a failure of a host
	// removed already — by failures or by an alert — removes nothing.
	l.ApplyAlert(Alert{Origin: 1, Seq: 1, Src: 3, UnixMs: sketchStart.UnixMilli()})
	for _, src := range []uint32{2, 3} {
		if d := l.ObserveFailure(src, 77, sketchStart); d != Allow {
			t.Errorf("failure of removed host %d = %v, want allow", src, d)
		}
	}
	s := l.Snapshot()
	if s.FailureRemovals != 1 || s.TotalRemovals != 1 {
		t.Errorf("FailureRemovals=%d TotalRemovals=%d, want 1/1", s.FailureRemovals, s.TotalRemovals)
	}
	if s.TotalFailures == 0 {
		t.Error("TotalFailures not counted")
	}
	// Repeat failures to one destination are free.
	before := l.failureCount(1)
	for i := 0; i < 1000; i++ {
		l.ObserveFailure(1, 3, sketchStart)
	}
	if got := l.failureCount(1); got != before {
		t.Errorf("repeat failures moved the estimate %d → %d", before, got)
	}
}

func TestSketchFailureDisabledIsNoop(t *testing.T) {
	l := newTestSketch(t, SketchConfig{
		LimiterConfig: LimiterConfig{M: 100, Cycle: time.Hour},
		Bits:          128,
	})
	j := &recJournal{}
	l.SetJournal(j)
	for i := 0; i < 500; i++ {
		if d := l.ObserveFailure(9, uint32(i), sketchStart); d != Allow {
			t.Fatalf("disabled failure observe = %v, want allow", d)
		}
	}
	if len(j.kinds) != 0 {
		t.Fatalf("disabled ObserveFailure journaled %d records", len(j.kinds))
	}
	if s := l.Snapshot(); s.TotalFailures != 0 || s.ActiveHosts != 0 {
		t.Fatalf("disabled ObserveFailure mutated state: %+v", s)
	}
}

// TestSketchPersistRoundTrip checks MarshalState → RestoreSketchLimiter
// → MarshalState is the identity, and that the restored limiter keeps
// deciding identically to the original.
func TestSketchPersistRoundTrip(t *testing.T) {
	cfg := SketchConfig{
		LimiterConfig: LimiterConfig{M: 100, Cycle: time.Hour, CheckFraction: 0.8},
		Bits:          128,
		FailureM:      50,
	}
	l := newTestSketch(t, cfg)
	src := rng.NewPCG64(11, 0)
	for i := 0; i < 5000; i++ {
		s := uint32(rng.Intn(src, 40))
		d := uint32(src.Uint64())
		at := sketchStart.Add(time.Duration(i) * time.Millisecond)
		l.Observe(s, d, at)
		if src.Float64() < 0.3 {
			l.ObserveFailure(s, d, at)
		}
	}
	data, err := l.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	r, err := restoreSketchLimiter(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := r.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("restore → marshal is not the identity")
	}
	if l.Snapshot() != r.Snapshot() {
		t.Fatalf("snapshots diverge: %+v vs %+v", l.Snapshot(), r.Snapshot())
	}
	// Both must keep deciding identically on fresh traffic.
	for i := 0; i < 2000; i++ {
		s := uint32(rng.Intn(src, 40))
		d := uint32(src.Uint64())
		at := sketchStart.Add(time.Duration(5000+i) * time.Millisecond)
		if dl, dr := l.Observe(s, d, at), r.Observe(s, d, at); dl != dr {
			t.Fatalf("decision %d diverges: %v vs %v", i, dl, dr)
		}
	}
}

// TestSketchRestoreAnyDispatch pins the backend dispatch both ways.
func TestSketchRestoreAnyDispatch(t *testing.T) {
	ex, err := NewLimiter(LimiterConfig{M: 10, Cycle: time.Hour}, sketchStart)
	if err != nil {
		t.Fatal(err)
	}
	ex.Observe(1, 2, sketchStart)
	sk := newTestSketch(t, SketchConfig{LimiterConfig: LimiterConfig{M: 100, Cycle: time.Hour}, Bits: 128})
	sk.Observe(3, 4, sketchStart)

	for _, tc := range []struct {
		data []byte
		want string
	}{
		{mustMarshal(t, ex), "*core.Limiter"},
		{mustMarshal(t, sk), "*core.SketchLimiter"},
	} {
		got, err := RestoreAnyLimiter(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		switch got.(type) {
		case *Limiter:
			if tc.want != "*core.Limiter" {
				t.Errorf("dispatched to exact, want %s", tc.want)
			}
		case *SketchLimiter:
			if tc.want != "*core.SketchLimiter" {
				t.Errorf("dispatched to sketch, want %s", tc.want)
			}
		}
	}
	if _, err := RestoreAnyLimiter([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

func mustMarshal(t testing.TB, l Backend) []byte {
	t.Helper()
	data, err := l.CheckpointState(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSketchJournalReplay proves the sketch is a pure function of its
// journaled input stream: replaying a recorded mixed workload
// (observes, failures, reinstates, cycle rolls) into a fresh sketch
// reproduces the state byte for byte — the invariant WAL recovery
// depends on.
func TestSketchJournalReplay(t *testing.T) {
	cfg := SketchConfig{
		LimiterConfig: LimiterConfig{M: 20, Cycle: 500 * time.Millisecond, CheckFraction: 0.5},
		Bits:          64,
		FailureM:      10,
		FailureBits:   64,
	}
	l := newTestSketch(t, cfg)
	j := &recJournal{}
	l.SetJournal(j)
	src := rng.NewPCG64(1905, 3)
	ms := int64(0)
	for i := 0; i < 3000; i++ {
		s := uint32(rng.Intn(src, 10))
		d := uint32(rng.Intn(src, 60)) // few destinations → repeats and removals
		at := sketchStart.Add(time.Duration(ms) * time.Millisecond)
		switch {
		case src.Float64() < 0.05:
			l.Reinstate(s)
		case src.Float64() < 0.3:
			l.ObserveFailure(s, d, at)
		default:
			l.Observe(s, d, at)
		}
		ms += 3 // crosses several 500ms cycles
	}

	replay := newTestSketch(t, cfg)
	for i, k := range j.kinds {
		at := time.UnixMilli(j.times[i]).UTC()
		switch k {
		case 'o':
			replay.Observe(j.srcs[i], j.dsts[i], at)
		case 'f':
			replay.ObserveFailure(j.srcs[i], j.dsts[i], at)
		case 'r':
			replay.Reinstate(j.srcs[i])
		}
	}
	want, got := mustMarshal(t, l), mustMarshal(t, replay)
	if !bytes.Equal(want, got) {
		t.Fatalf("journal replay diverges:\nlive:   %s\nreplay: %s", want, got)
	}
}

// TestSketchObserveZeroAllocSteadyState pins the PR4 discipline on the
// new backend: once a host is tracked, Observe and ObserveFailure
// allocate nothing.
func TestSketchObserveZeroAllocSteadyState(t *testing.T) {
	l := newTestSketch(t, SketchConfig{
		LimiterConfig: LimiterConfig{M: 5000, Cycle: 365 * 24 * time.Hour, CheckFraction: 0.9},
		FailureM:      100,
	})
	l.Observe(1, 1, sketchStart)
	l.ObserveFailure(1, 1, sketchStart)
	var i uint32
	if n := testing.AllocsPerRun(2000, func() {
		i++
		l.Observe(1, i, sketchStart)
	}); n != 0 {
		t.Errorf("Observe allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() {
		i++
		l.ObserveFailure(1, i, sketchStart)
	}); n != 0 {
		t.Errorf("ObserveFailure allocates %.1f per call, want 0", n)
	}
}

// TestSketchCycleRollKeepsSlabs: after a roll, re-tracking the same
// fleet allocates no new register slabs.
func TestSketchCycleRollKeepsSlabs(t *testing.T) {
	l := newTestSketch(t, SketchConfig{
		LimiterConfig: LimiterConfig{M: 100, Cycle: time.Minute},
		Bits:          128,
	})
	for s := uint32(0); s < 3000; s++ {
		l.Observe(s, 1, sketchStart)
	}
	before := l.Memory()
	l.Observe(0, 1, sketchStart.Add(time.Minute)) // rolls the cycle
	for s := uint32(0); s < 3000; s++ {
		l.Observe(s, 2, sketchStart.Add(time.Minute))
	}
	after := l.Memory()
	if after.RegisterBytes != before.RegisterBytes {
		t.Errorf("register capacity changed across roll: %d → %d",
			before.RegisterBytes, after.RegisterBytes)
	}
	if after.TrackedHosts != 3000 {
		t.Errorf("tracked hosts = %d, want 3000", after.TrackedHosts)
	}
	if after.BytesPerHost != 16 {
		t.Errorf("bytes/host = %d, want 16 for 128-bit sketches", after.BytesPerHost)
	}
}

func TestSketchMemoryAndError(t *testing.T) {
	l := newTestSketch(t, SketchConfig{
		LimiterConfig: LimiterConfig{M: 100, Cycle: time.Hour},
		Bits:          128,
	})
	if e := l.ExpectedRelativeError(); e <= 0 || e > 0.5 || math.IsNaN(e) {
		t.Errorf("expected relative error = %v, want a sane positive fraction", e)
	}
	wide := newTestSketch(t, SketchConfig{
		LimiterConfig: LimiterConfig{M: 100, Cycle: time.Hour},
		Bits:          1024,
	})
	if l.ExpectedRelativeError() <= wide.ExpectedRelativeError() {
		t.Error("wider sketch must have lower expected error")
	}
}

// TestSketchEstimateMonotoneThresholds sanity-checks the precomputed
// set-bit thresholds against the closed-form estimator.
func TestSketchEstimateMonotoneThresholds(t *testing.T) {
	for _, m := range []int{64, 128, 1024} {
		last := 0.0
		for k := 0; k < m; k++ {
			e := linearEstimate(m, k)
			if e < last {
				t.Fatalf("estimate not monotone at m=%d k=%d", m, k)
			}
			last = e
		}
		if !math.IsInf(linearEstimate(m, m), 1) {
			t.Fatalf("saturated estimate not +Inf at m=%d", m)
		}
		k := sketchThresholdBits(m, 50)
		if linearEstimate(m, k) < 50 || (k > 1 && linearEstimate(m, k-1) >= 50) {
			t.Fatalf("threshold bits %d not minimal for m=%d target=50", k, m)
		}
	}
	if sketchThresholdBits(64, 0) != 0 {
		t.Error("zero target should give zero threshold")
	}
	// An unreachable target lands on full saturation (estimate +Inf),
	// which the capacity rule then rejects.
	if sketchThresholdBits(64, 1e9) != 64 {
		t.Error("unreachable target should land on saturation")
	}
}
