package defense

import (
	"strings"
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/rng"
)

func TestActionString(t *testing.T) {
	cases := map[Action]string{
		Permit:    "permit",
		Delay:     "delay",
		Drop:      "drop",
		Action(0): "Action(?)",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d: got %q, want %q", int(a), got, want)
		}
	}
}

func TestNullPermitsEverything(t *testing.T) {
	var d Null
	for i := 0; i < 100; i++ {
		v := d.OnScan(addr.IP(i), addr.IP(i*7), time.Duration(i)*time.Second)
		if v.Action != Permit {
			t.Fatalf("null defense returned %v", v.Action)
		}
	}
	if d.Blocked(1, time.Hour) {
		t.Error("null defense never blocks")
	}
	if d.Name() != "none" {
		t.Errorf("name = %q", d.Name())
	}
}

func TestMLimitDropsBeyondBudget(t *testing.T) {
	d, err := NewMLimit(3, 30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	src := addr.IP(42)
	for i := 1; i <= 3; i++ {
		if v := d.OnScan(src, addr.IP(i), time.Second); v.Action != Permit {
			t.Fatalf("scan %d: %v", i, v.Action)
		}
	}
	if v := d.OnScan(src, addr.IP(4), 2*time.Second); v.Action != Drop {
		t.Fatalf("4th distinct scan: %v, want drop", v.Action)
	}
	if !d.Blocked(src, 2*time.Second) {
		t.Error("host should be blocked after removal")
	}
	if got := d.limiter.DistinctCount(uint32(src)); got != 3 {
		t.Errorf("distinct count = %d, want 3", got)
	}
	if s := d.limiter.Snapshot(); s.TotalRemovals != 1 {
		t.Errorf("removals = %d, want 1", s.TotalRemovals)
	}
	if !strings.Contains(d.Name(), "M=3") {
		t.Errorf("name = %q", d.Name())
	}
}

func TestMLimitRepeatsFree(t *testing.T) {
	d, err := NewMLimit(1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v := d.OnScan(5, 77, time.Duration(i)*time.Millisecond); v.Action != Permit {
			t.Fatalf("repeat scan %d dropped", i)
		}
	}
}

func TestMLimitValidation(t *testing.T) {
	if _, err := NewMLimit(0, time.Hour); err == nil {
		t.Error("expected error for M = 0")
	}
	if _, err := NewMLimit(10, 0); err == nil {
		t.Error("expected error for zero cycle")
	}
}

func TestMLimitCycleReset(t *testing.T) {
	d, err := NewMLimit(1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	d.OnScan(9, 1, 0)
	if v := d.OnScan(9, 2, time.Minute); v.Action != Drop {
		t.Fatal("expected removal in first cycle")
	}
	if v := d.OnScan(9, 2, time.Hour+time.Minute); v.Action != Permit {
		t.Errorf("after cycle reset: %v, want permit", v.Action)
	}
}

func TestThrottleWorkingSetFree(t *testing.T) {
	th, err := newThrottle(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// First contact to a destination may pass (queue idle)...
	if v := th.OnScan(1, 100, 0); v.Action != Permit {
		t.Fatalf("first novel: %v", v.Action)
	}
	// ...and repeats to a working-set member are always free.
	for i := 1; i <= 10; i++ {
		if v := th.OnScan(1, 100, time.Duration(i)*time.Millisecond); v.Action != Permit {
			t.Fatalf("working-set repeat delayed at %d", i)
		}
	}
}

func TestThrottleDelaysFastNovelScans(t *testing.T) {
	th := NewWilliamsonThrottle()
	// Burst of 10 novel destinations at t=0: the first is serviced
	// immediately, the k-th waits (k−1) seconds at rate 1/s.
	for k := 0; k < 10; k++ {
		v := th.OnScan(1, addr.IP(1000+k), 0)
		wantDelay := time.Duration(k) * time.Second
		if k == 0 {
			if v.Action != Permit {
				t.Fatalf("first novel scan: %v", v.Action)
			}
			continue
		}
		if v.Action != Delay || v.Delay != wantDelay {
			t.Fatalf("novel scan %d: action %v delay %v, want delay %v",
				k, v.Action, v.Delay, wantDelay)
		}
	}
	if got := th.perHost[1].nextFree; got != 10*time.Second {
		t.Errorf("queue delay = %v, want 10s", got)
	}
}

func TestThrottleSlowScannerUnimpeded(t *testing.T) {
	// A host contacting one new destination every 2 s at a 1/s throttle
	// never queues — exactly why the throttle cannot stop slow worms.
	th := NewWilliamsonThrottle()
	for k := 0; k < 20; k++ {
		at := time.Duration(2*k) * time.Second
		if v := th.OnScan(7, addr.IP(5000+k), at); v.Action != Permit {
			t.Fatalf("slow scan %d at %v: %v (delay %v)", k, at, v.Action, v.Delay)
		}
	}
}

func TestThrottleQueueDrainsOverTime(t *testing.T) {
	th := NewWilliamsonThrottle()
	for k := 0; k < 5; k++ {
		th.OnScan(1, addr.IP(k), 0)
	}
	// At t = 100s the queue is long gone; a new novel scan is free.
	if v := th.OnScan(1, 999, 100*time.Second); v.Action != Permit {
		t.Errorf("post-drain novel scan: %v", v.Action)
	}
}

func TestThrottleNeverBlocks(t *testing.T) {
	th := NewWilliamsonThrottle()
	for k := 0; k < 100; k++ {
		th.OnScan(1, addr.IP(k), 0)
	}
	if th.Blocked(1, 0) {
		t.Error("throttle must not block hosts outright")
	}
}

func TestThrottlePerHostIsolation(t *testing.T) {
	th := NewWilliamsonThrottle()
	for k := 0; k < 10; k++ {
		th.OnScan(1, addr.IP(k), 0)
	}
	if v := th.OnScan(2, 500, 0); v.Action != Permit {
		t.Errorf("host 2 affected by host 1's queue: %v", v.Action)
	}
}

func TestThrottleValidation(t *testing.T) {
	if _, err := newThrottle(0, 1); err == nil {
		t.Error("expected error for working set 0")
	}
	if _, err := newThrottle(5, 0); err == nil {
		t.Error("expected error for rate 0")
	}
}

func TestThrottleName(t *testing.T) {
	if name := NewWilliamsonThrottle().Name(); !strings.Contains(name, "ws=5") {
		t.Errorf("name = %q", name)
	}
}

func TestQuarantineValidation(t *testing.T) {
	src := rng.NewPCG64(1, 0)
	if _, err := NewQuarantine(-0.1, time.Minute, src); err == nil {
		t.Error("expected error for negative probability")
	}
	if _, err := NewQuarantine(1.5, time.Minute, src); err == nil {
		t.Error("expected error for probability > 1")
	}
	if _, err := NewQuarantine(0.5, 0, src); err == nil {
		t.Error("expected error for zero window")
	}
	if _, err := NewQuarantine(0.5, time.Minute, nil); err == nil {
		t.Error("expected error for nil source")
	}
}

func TestQuarantineCertainDetection(t *testing.T) {
	q, err := NewQuarantine(1, time.Minute, rng.NewPCG64(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if v := q.OnScan(1, 2, 0); v.Action != Drop {
		t.Fatalf("certain detector should drop first scan: %v", v.Action)
	}
	if !q.Blocked(1, 30*time.Second) {
		t.Error("host should be quarantined")
	}
	if q.alarms != 1 {
		t.Errorf("alarms = %d", q.alarms)
	}
	// Released after the window.
	if q.Blocked(1, 2*time.Minute) {
		t.Error("host should be released after the window")
	}
	// Next scan triggers a fresh alarm.
	if v := q.OnScan(1, 3, 2*time.Minute); v.Action != Drop {
		t.Errorf("re-detection failed: %v", v.Action)
	}
	if q.alarms != 2 {
		t.Errorf("alarms = %d, want 2", q.alarms)
	}
}

func TestQuarantineZeroDetectionPermitsAll(t *testing.T) {
	q, err := NewQuarantine(0, time.Minute, rng.NewPCG64(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if v := q.OnScan(1, addr.IP(i), 0); v.Action != Permit {
			t.Fatalf("scan %d: %v", i, v.Action)
		}
	}
	if q.alarms != 0 {
		t.Errorf("alarms = %d", q.alarms)
	}
}

func TestQuarantineAlarmRate(t *testing.T) {
	q, err := NewQuarantine(0.1, time.Nanosecond, rng.NewPCG64(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	const n = 10000
	for i := 0; i < n; i++ {
		// Distinct sources so quarantine state never masks the coin.
		if v := q.OnScan(addr.IP(i), 1, time.Duration(i)); v.Action == Drop {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.08 || frac > 0.12 {
		t.Errorf("alarm fraction %v, want ~0.1", frac)
	}
}

func TestQuarantineBlockedScansDropped(t *testing.T) {
	q, _ := NewQuarantine(1, time.Hour, rng.NewPCG64(5, 0))
	q.OnScan(1, 2, 0) // alarm
	alarmsBefore := q.alarms
	if v := q.OnScan(1, 3, time.Minute); v.Action != Drop {
		t.Errorf("quarantined host scan: %v", v.Action)
	}
	if q.alarms != alarmsBefore {
		t.Error("scans during quarantine must not raise new alarms")
	}
}
