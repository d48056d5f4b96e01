package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC) // DSN 2005 week

func newTestLimiter(t *testing.T, cfg LimiterConfig) *Limiter {
	t.Helper()
	l, err := NewLimiter(cfg, t0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLimiterConfigValidation(t *testing.T) {
	cases := []struct {
		cfg     LimiterConfig
		wantErr bool
	}{
		{LimiterConfig{M: 5000, Cycle: 30 * 24 * time.Hour, CheckFraction: 0.9}, false},
		{LimiterConfig{M: 0, Cycle: time.Hour}, true},
		{LimiterConfig{M: 10, Cycle: 0}, true},
		{LimiterConfig{M: 10, Cycle: time.Hour, CheckFraction: -0.1}, true},
		{LimiterConfig{M: 10, Cycle: time.Hour, CheckFraction: 1.1}, true},
		{LimiterConfig{M: 10, Cycle: time.Hour, CheckFraction: 0}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err != nil) != c.wantErr {
			t.Errorf("%+v: err = %v, wantErr = %v", c.cfg, err, c.wantErr)
		}
	}
}

func TestLimiterAllowsUpToM(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 3, Cycle: time.Hour})
	for dst := uint32(1); dst <= 3; dst++ {
		if d := l.Observe(42, dst, t0); d != Allow {
			t.Fatalf("dst %d: decision %v, want allow", dst, d)
		}
	}
	if d := l.Observe(42, 4, t0); d != Deny {
		t.Fatalf("4th distinct destination: decision %v, want deny", d)
	}
	if !l.Removed(42) {
		t.Error("host should be removed after exceeding M")
	}
}

func TestLimiterRepeatContactsAreFree(t *testing.T) {
	// The scheme counts UNIQUE destinations: repeat traffic to the same
	// server never consumes budget. This is the paper's key
	// non-intrusiveness property vs. rate limiting.
	l := newTestLimiter(t, LimiterConfig{M: 2, Cycle: time.Hour})
	for i := 0; i < 1000; i++ {
		if d := l.Observe(1, 99, t0.Add(time.Duration(i)*time.Second)); d != Allow {
			t.Fatalf("repeat contact %d denied", i)
		}
	}
	if got := l.DistinctCount(1); got != 1 {
		t.Errorf("distinct count = %d, want 1", got)
	}
}

func TestLimiterRemovedHostStaysBlocked(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 1, Cycle: time.Hour})
	l.Observe(7, 1, t0)
	l.Observe(7, 2, t0) // removal
	// Even a previously seen destination is blocked once removed.
	if d := l.Observe(7, 1, t0); d != Deny {
		t.Errorf("removed host observed %v, want deny", d)
	}
}

func TestLimiterReinstate(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 1, Cycle: time.Hour})
	l.Observe(7, 1, t0)
	l.Observe(7, 2, t0)
	if !l.Reinstate(7) {
		t.Fatal("reinstate of removed host should succeed")
	}
	if l.Removed(7) {
		t.Error("host still removed after reinstate")
	}
	if got := l.DistinctCount(7); got != 0 {
		t.Errorf("counter = %d after reinstate, want 0", got)
	}
	if l.Reinstate(7) {
		t.Error("reinstate of healthy host should report false")
	}
	if l.Reinstate(1234) {
		t.Error("reinstate of unknown host should report false")
	}
}

func TestLimiterCheckFraction(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 10, Cycle: time.Hour, CheckFraction: 0.5})
	var flagged int
	for dst := uint32(1); dst <= 10; dst++ {
		if l.Observe(3, dst, t0) == AllowAndCheck {
			flagged++
			if dst != 5 {
				t.Errorf("flag raised at destination %d, want 5 (f·M)", dst)
			}
		}
	}
	if flagged != 1 {
		t.Errorf("flag raised %d times, want exactly once per cycle", flagged)
	}
}

func TestLimiterCycleReset(t *testing.T) {
	cycle := 24 * time.Hour
	l := newTestLimiter(t, LimiterConfig{M: 2, Cycle: cycle})
	l.Observe(9, 1, t0)
	l.Observe(9, 2, t0)
	if d := l.Observe(9, 3, t0.Add(time.Minute)); d != Deny {
		t.Fatal("expected removal within first cycle")
	}
	// Next cycle: counters reset, removed hosts reinstated (step 4).
	if d := l.Observe(9, 3, t0.Add(cycle+time.Minute)); d != Allow {
		t.Errorf("after cycle rollover got %v, want allow", d)
	}
	if got := l.CycleIndex(); got != 1 {
		t.Errorf("cycle index = %d, want 1", got)
	}
	if got := l.DistinctCount(9); got != 1 {
		t.Errorf("distinct count = %d after rollover, want 1", got)
	}
}

func TestLimiterMultiCycleSkip(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 5, Cycle: time.Hour})
	l.Observe(1, 1, t0)
	l.Observe(1, 2, t0.Add(10*time.Hour)) // skips 10 cycles at once
	if got := l.CycleIndex(); got != 10 {
		t.Errorf("cycle index = %d, want 10", got)
	}
	if got := l.DistinctCount(1); got != 1 {
		t.Errorf("distinct count = %d, want 1 (only post-skip contact)", got)
	}
}

func TestLimiterPerHostIsolation(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 1, Cycle: time.Hour})
	l.Observe(1, 100, t0)
	l.Observe(1, 101, t0) // host 1 removed
	if d := l.Observe(2, 100, t0); d != Allow {
		t.Errorf("host 2 affected by host 1's removal: %v", d)
	}
}

func TestLimiterSnapshot(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 2, Cycle: time.Hour, CheckFraction: 0.5})
	l.Observe(1, 1, t0) // flags host 1 (1 >= 0.5*2)
	l.Observe(2, 1, t0)
	l.Observe(2, 2, t0)
	l.Observe(2, 3, t0) // removes host 2
	l.Observe(2, 4, t0) // denied again
	s := l.Snapshot()
	if s.ActiveHosts != 2 {
		t.Errorf("ActiveHosts = %d, want 2", s.ActiveHosts)
	}
	if s.RemovedHosts != 1 || s.TotalRemovals != 1 {
		t.Errorf("removals: %+v", s)
	}
	if s.TotalDenied != 2 {
		t.Errorf("TotalDenied = %d, want 2", s.TotalDenied)
	}
	if s.FlaggedHosts < 1 {
		t.Errorf("FlaggedHosts = %d, want >= 1", s.FlaggedHosts)
	}
}

func TestLimiterTopCounts(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 100, Cycle: time.Hour})
	for dst := uint32(0); dst < 7; dst++ {
		l.Observe(1, dst, t0)
	}
	for dst := uint32(0); dst < 3; dst++ {
		l.Observe(2, dst, t0)
	}
	l.Observe(3, 0, t0)
	top := l.topCounts(2)
	if len(top) != 2 || top[0] != 7 || top[1] != 3 {
		t.Errorf("TopCounts = %v, want [7 3]", top)
	}
	all := l.topCounts(10)
	if len(all) != 3 {
		t.Errorf("TopCounts(10) returned %d entries, want 3", len(all))
	}
}

func TestLimiterConcurrentSafety(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 1000, Cycle: time.Hour})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		src := uint32(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := uint32(0); d < 500; d++ {
				l.Observe(src, d, t0)
			}
		}()
	}
	wg.Wait()
	for g := uint32(0); g < 8; g++ {
		if got := l.DistinctCount(g); got != 500 {
			t.Errorf("host %d count = %d, want 500", g, got)
		}
	}
}

func TestDecisionString(t *testing.T) {
	cases := map[Decision]string{
		Allow:         "allow",
		AllowAndCheck: "allow+check",
		Deny:          "deny",
		Decision(0):   "Decision(0)",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

// Property: a host is denied exactly when it would exceed M distinct
// destinations, regardless of the order or multiplicity of contacts.
func TestQuickLimiterDenyOnlyBeyondM(t *testing.T) {
	f := func(mRaw uint8, dsts []uint8) bool {
		m := int(mRaw%20) + 1
		l, err := NewLimiter(LimiterConfig{M: m, Cycle: time.Hour}, t0)
		if err != nil {
			return false
		}
		seen := map[uint8]bool{}
		for _, d := range dsts {
			dec := l.Observe(1, uint32(d), t0)
			wouldBeNew := !seen[d]
			switch {
			case len(seen) >= m && wouldBeNew:
				if dec != Deny {
					return false
				}
				// Once removed, everything is denied; stop checking
				// the "new destination" bookkeeping.
				return true
			default:
				if dec == Deny {
					return false
				}
				seen[d] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLimiterSmallSetSpill drives one host far past inlineDsts so the
// distinct set crosses from the host's slot into a spilled set, and
// checks that membership, counting, the M boundary, and reinstation
// all behave identically on both sides of the transition.
func TestLimiterSmallSetSpill(t *testing.T) {
	m := 3 * inlineDsts
	l := newTestLimiter(t, LimiterConfig{M: m, Cycle: time.Hour})

	for d := 0; d < m; d++ {
		if dec := l.Observe(1, uint32(d), t0); dec != Allow {
			t.Fatalf("distinct destination %d: decision %v, want allow", d, dec)
		}
		if got := l.DistinctCount(1); got != d+1 {
			t.Fatalf("after %d destinations: count %d", d+1, got)
		}
	}
	// Repeats stay free in both representations.
	for _, d := range []uint32{0, inlineDsts - 1, inlineDsts, uint32(m - 1)} {
		if dec := l.Observe(1, d, t0); dec != Allow {
			t.Fatalf("repeat contact to %d: decision %v, want allow", d, dec)
		}
	}
	if got := l.DistinctCount(1); got != m {
		t.Fatalf("count after repeats = %d, want %d", got, m)
	}
	if dec := l.Observe(1, uint32(m), t0); dec != Deny {
		t.Fatalf("destination m+1: decision %v, want deny", dec)
	}
	if !l.Reinstate(1) {
		t.Fatal("reinstate failed")
	}
	if got := l.DistinctCount(1); got != 0 {
		t.Fatalf("count after reinstate = %d, want 0", got)
	}
	if dec := l.Observe(1, 7, t0); dec != Allow {
		t.Fatalf("post-reinstate contact: decision %v, want allow", dec)
	}
}

// spillBoundaryCounts are the set sizes on either side of the inline
// capacity, and of 64, where the representation this one replaced
// spilled.
var spillBoundaryCounts = []int{inlineDsts - 1, inlineDsts, inlineDsts + 1, 64, 65}

// spillBoundarySnapshot is the snapshot of a limiter whose one host holds
// n destinations, 0 and the all-ones address among them.
func spillBoundarySnapshot(t testing.TB, n int) []byte {
	t.Helper()
	l, err := NewLimiter(LimiterConfig{M: 100, Cycle: time.Hour}, t0)
	if err != nil {
		t.Fatal(err)
	}
	l.Observe(1, 1<<32-1, t0)
	for d := 0; d < n-1; d++ {
		l.Observe(1, uint32(d)*0x01000193, t0)
	}
	return mustMarshal(t, l)
}

// TestLimiterSnapshotRoundTripSpilled checks that a host's set survives
// MarshalState/RestoreLimiter byte-for-byte — spilled, inline, and at
// every size where the representation changes or once changed — and that
// the restored set is the same set.
func TestLimiterSnapshotRoundTripSpilled(t *testing.T) {
	m := 2 * inlineDsts
	l := newTestLimiter(t, LimiterConfig{M: m, Cycle: time.Hour})
	for d := 0; d < m; d++ {
		l.Observe(1, uint32(d), t0)
	}
	data, err := l.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreLimiter(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.DistinctCount(1); got != m {
		t.Fatalf("restored count = %d, want %d", got, m)
	}
	data2, err := restored.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("snapshot not stable across restore")
	}

	for _, n := range spillBoundaryCounts {
		data := spillBoundarySnapshot(t, n)
		restored, err := RestoreLimiter(data)
		if err != nil {
			t.Fatalf("%d destinations: %v", n, err)
		}
		if got := restored.DistinctCount(1); got != n {
			t.Fatalf("%d destinations: restored count = %d", n, got)
		}
		if h := restored.stripeOf(1).hosts.find(1); (h.spill != 0) != (n > inlineDsts) {
			t.Fatalf("%d destinations: restored slot %+v in the wrong representation", n, *h)
		}
		if string(mustMarshal(t, restored)) != string(data) {
			t.Fatalf("%d destinations: snapshot not stable across restore", n)
		}
		// Members are members, and the next address is new.
		for _, d := range []uint32{1<<32 - 1, 0, uint32(n-2) * 0x01000193} {
			if dec := restored.Observe(1, d, t0); dec != Allow || restored.DistinctCount(1) != n {
				t.Fatalf("%d destinations: repeat of %d: %v, count %d", n, d, dec, restored.DistinctCount(1))
			}
		}
		if restored.Observe(1, 12345, t0); restored.DistinctCount(1) != n+1 {
			t.Fatalf("%d destinations: a new address left the count at %d", n, restored.DistinctCount(1))
		}
	}
}
